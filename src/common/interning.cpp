#include "common/interning.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace zerosum::names {

namespace {

// Entries are stored in fixed-size chunks that, once allocated, never
// move: lookup() may dereference them without a lock.  The top-level
// chunk-pointer table is a fixed array (no reallocation either); only
// the chunk pointers and the published size are atomic.
constexpr std::size_t kChunkBits = 10;  // 1024 names per chunk
constexpr std::size_t kChunkSize = 1U << kChunkBits;
constexpr std::size_t kMaxChunks = kMaxNames / kChunkSize;
static_assert(kMaxChunks * kChunkSize == kMaxNames);

struct Chunk {
  std::array<std::string, kChunkSize> entries;
};

struct Table {
  std::mutex mutex;  // serializes intern() misses only
  std::unordered_map<std::string_view, Id> index;  // views into chunks
  std::size_t capacity = kMaxNames;                 // guarded by mutex
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks{};
  std::atomic<std::uint32_t> published{0};  // count of readable entries

  ~Table() = default;
};

Table& table() {
  // Leaked singleton: lookup() views must stay valid through static
  // destruction (subscribers and tool backends may flush very late).
  static Table* t = new Table();
  return *t;
}

}  // namespace

Id intern(std::string_view name) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mutex);
  if (const auto it = t.index.find(name); it != t.index.end()) {
    return it->second;
  }
  const std::uint32_t slot = t.published.load(std::memory_order_relaxed);
  if (slot >= t.capacity) {
    // Table full: degrade to "unknown" rather than throwing on a
    // monitoring path ("do no harm").
    return kInvalidId;
  }
  const std::size_t chunkIdx = slot >> kChunkBits;
  Chunk* chunk = t.chunks[chunkIdx].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    t.chunks[chunkIdx].store(chunk, std::memory_order_release);
  }
  std::string& storage = chunk->entries[slot & (kChunkSize - 1)];
  storage.assign(name);
  t.index.emplace(std::string_view(storage), slot + 1);  // ids are 1-based
  // Publish after the entry is fully written so lock-free readers only
  // ever see complete strings.
  t.published.store(slot + 1, std::memory_order_release);
  return slot + 1;
}

Id find(std::string_view name) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mutex);
  const auto it = t.index.find(name);
  return it == t.index.end() ? kInvalidId : it->second;
}

std::string_view lookup(Id id) {
  if (id == kInvalidId) {
    return {};
  }
  Table& t = table();
  const std::uint32_t published = t.published.load(std::memory_order_acquire);
  if (id > published) {
    return {};
  }
  const std::uint32_t slot = id - 1;
  const Chunk* chunk =
      t.chunks[slot >> kChunkBits].load(std::memory_order_acquire);
  return chunk == nullptr ? std::string_view{}
                          : std::string_view(chunk->entries[slot & (kChunkSize - 1)]);
}

std::string lookupString(Id id) { return std::string(lookup(id)); }

std::size_t internedCount() {
  return table().published.load(std::memory_order_acquire);
}

void setCapacity(std::size_t names) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mutex);
  t.capacity = std::min(names, kMaxNames);
}

}  // namespace zerosum::names
