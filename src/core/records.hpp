// Sample records: the time-series every tracker accumulates and every
// report/export consumes.  One sample per monitoring period per entity.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/cpuset.hpp"
#include "common/lwp_type.hpp"
#include "common/stats.hpp"
#include "gpu/metrics.hpp"

namespace zerosum::core {

/// One periodic observation of a light-weight process.  Its affinity is
/// not here: LwpRecord keeps that as change events, so a sample stays at
/// 88 bytes where a 2048-bit CpuSet alone takes 256.
struct LwpSample {
  double timeSeconds = 0.0;
  char state = '?';
  // Cumulative kernel counters at sample time.
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  std::uint64_t voluntaryCtx = 0;
  std::uint64_t nonvoluntaryCtx = 0;
  std::uint64_t minorFaults = 0;
  std::uint64_t majorFaults = 0;
  // Deltas since the previous sample of this LWP (first sample: since 0).
  std::uint64_t utimeDelta = 0;
  std::uint64_t stimeDelta = 0;
  int processor = -1;
};

/// The affinity an LWP had from sample `firstSample` on, until the next
/// change.
struct AffinityChange {
  std::size_t firstSample = 0;
  CpuSet cpus;
};

/// Full history of one LWP over the run.
struct LwpRecord {
  int tid = 0;
  std::string name;
  LwpType type = LwpType::kOther;
  /// The paper's "†": a Main thread that is also an OpenMP team member.
  bool alsoOpenMp = false;
  bool alive = true;  ///< false once the tid vanishes from /proc
  std::vector<LwpSample> samples;
  /// One entry per affinity change, in sample order.  Samples before the
  /// first entry had an empty affinity.
  std::vector<AffinityChange> affinityChanges;

  /// Appends a sample taken with `affinity`; records a change only when
  /// it differs from lastAffinity().
  void addSample(const LwpSample& sample, const CpuSet& affinity);

  [[nodiscard]] double avgUtimePerPeriod() const;
  [[nodiscard]] double avgStimePerPeriod() const;
  [[nodiscard]] std::uint64_t totalVoluntaryCtx() const;
  [[nodiscard]] std::uint64_t totalNonvoluntaryCtx() const;
  [[nodiscard]] std::uint64_t totalUtime() const;
  [[nodiscard]] std::uint64_t totalStime() const;
  /// Number of observed last-CPU changes (a lower bound on migrations —
  /// exactly the quantity the paper reports for Table 2's unbound threads).
  [[nodiscard]] std::uint64_t observedMigrations() const;
  /// Affinity of the newest sample (empty before any).
  [[nodiscard]] const CpuSet& lastAffinity() const;
  /// True when the affinity list changed between any two samples.
  [[nodiscard]] bool affinityChanged() const;
};

/// One periodic observation of a hardware thread.
struct HwtSample {
  double timeSeconds = 0.0;
  // Cumulative jiffies.
  std::uint64_t user = 0;
  std::uint64_t system = 0;
  std::uint64_t idle = 0;
  // Period percentages (deltas normalized by their sum).
  double userPct = 0.0;
  double systemPct = 0.0;
  double idlePct = 0.0;
};

struct HwtRecord {
  std::size_t cpu = 0;
  std::vector<HwtSample> samples;

  [[nodiscard]] double avgUserPct() const;
  [[nodiscard]] double avgSystemPct() const;
  [[nodiscard]] double avgIdlePct() const;
};

/// One periodic observation of node and process memory.
struct MemSample {
  double timeSeconds = 0.0;
  std::uint64_t memTotalKb = 0;
  std::uint64_t memFreeKb = 0;
  std::uint64_t memAvailableKb = 0;
  std::uint64_t processRssKb = 0;
  std::uint64_t processHwmKb = 0;
};

/// Accumulated GPU observations: min/avg/max per metric (the Listing 2
/// table) plus the raw time series for CSV export.
struct GpuRecord {
  int visibleIndex = 0;
  int physicalIndex = 0;
  std::string model;
  std::map<gpu::Metric, stats::Accumulator> accumulators;
  std::vector<std::pair<double, gpu::Sample>> samples;
};

}  // namespace zerosum::core
