// CpuSet: a fixed-capacity bitmask over hardware-thread indexes.
//
// ZeroSum reads and compares CPU affinity lists constantly: the process
// affinity from /proc/<pid>/status ("Cpus_allowed_list"), per-LWP affinity,
// topology cpusets for NUMA domains and caches, and scheduler masks in the
// node simulator.  This type provides the cpulist grammar used by the kernel
// ("1-7,9-15,64") plus the set algebra the contention analyzer needs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace zerosum {

/// Bitmask of hardware-thread (PU) OS indexes.  Capacity covers current and
/// near-future HPC nodes (Frontier exposes 128 HWTs; Aurora 208).
class CpuSet {
 public:
  static constexpr std::size_t kMaxCpus = 2048;

  CpuSet() = default;

  /// Parses a kernel cpulist, e.g. "0", "1-7", "1-7,9-15,64".
  /// Whitespace around commas is tolerated.  Throws ParseError on bad
  /// input.  Allocation-free except on the error path.
  static CpuSet fromList(std::string_view list);

  /// Parses the kernel's hexadecimal mask format ("Cpus_allowed" in
  /// /proc/<pid>/status): comma-separated 32-bit words, most significant
  /// first, e.g. "ff" = CPUs 0-7, "1,00000000" = CPU 32.
  static CpuSet fromHexMask(std::string_view mask);

  /// Builds the set {first, first+1, ..., last}.  Throws if last < first or
  /// last >= kMaxCpus.
  static CpuSet range(std::size_t first, std::size_t last);

  /// Builds a set from explicit indexes.
  static CpuSet of(const std::vector<std::size_t>& cpus);

  /// Full mask of the first `n` CPUs.
  static CpuSet firstN(std::size_t n);

  void set(std::size_t cpu);
  void clear(std::size_t cpu);
  [[nodiscard]] bool test(std::size_t cpu) const;

  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] bool empty() const;

  /// Lowest set index; throws StateError when empty.
  [[nodiscard]] std::size_t first() const;
  /// Highest set index; throws StateError when empty.
  [[nodiscard]] std::size_t last() const;

  /// All set indexes in ascending order.
  [[nodiscard]] std::vector<std::size_t> toVector() const;

  /// Renders the kernel cpulist form, collapsing runs: "1-7,9-15,64".
  /// An empty set renders as "".
  [[nodiscard]] std::string toList() const;

  [[nodiscard]] CpuSet operator&(const CpuSet& o) const;
  [[nodiscard]] CpuSet operator|(const CpuSet& o) const;
  [[nodiscard]] CpuSet operator-(const CpuSet& o) const;
  CpuSet& operator|=(const CpuSet& o);
  CpuSet& operator&=(const CpuSet& o);

  [[nodiscard]] bool intersects(const CpuSet& o) const;
  /// True when every CPU in `o` is also in *this.
  [[nodiscard]] bool containsAll(const CpuSet& o) const;

  bool operator==(const CpuSet& o) const = default;

 private:
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t kWords = kMaxCpus / kWordBits;
  static_assert(kMaxCpus % kWordBits == 0, "the scans assume whole words");

  /// Lowest index >= `from` whose bit is `bit`, or kMaxCpus when there is
  /// none; skips a whole word at a time.
  [[nodiscard]] std::size_t findNext(bool bit, std::size_t from) const;

  /// Bit i of words_[w] is CPU w * 64 + i.
  std::array<std::uint64_t, kWords> words_{};
};

}  // namespace zerosum
