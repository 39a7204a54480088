// Global-allocation counting hook, for the zero-allocation guarantees on
// the sampling hot path (test_zero_alloc).
//
// Including this header DEFINES the replaceable global operator new /
// operator delete set, so it must be included in EXACTLY ONE translation
// unit of a binary — it is a measurement harness, not a library header.
// Every successful allocation bumps two relaxed atomic counters, one by 1
// and one by the bytes asked for; frees are not counted (the claims under
// test are "no allocation" and "this many bytes", not "balanced").
//
// The hooks malloc/free directly (no recursion risk: malloc is not
// operator new) and never throw except bad_alloc on exhaustion, matching
// the replaced operators' contracts.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace zerosum::allochook {

inline std::atomic<std::uint64_t> count{0};
inline std::atomic<std::uint64_t> bytes{0};

/// Total allocations since process start (relaxed; single-threaded
/// measurement loops read a before/after delta).
inline std::uint64_t allocations() {
  return count.load(std::memory_order_relaxed);
}

/// Total bytes requested since process start, as allocations() counts.
inline std::uint64_t allocatedBytes() {
  return bytes.load(std::memory_order_relaxed);
}

inline void* allocate(std::size_t size) {
  count.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
  // malloc(0) may return nullptr legally; operator new must not.
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

inline void* allocateAligned(std::size_t size, std::align_val_t align) {
  count.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace zerosum::allochook

void* operator new(std::size_t size) {
  return zerosum::allochook::allocate(size);
}
void* operator new[](std::size_t size) {
  return zerosum::allochook::allocate(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return zerosum::allochook::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return zerosum::allochook::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return zerosum::allochook::allocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return zerosum::allochook::allocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
