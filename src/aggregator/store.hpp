// RollupStore: the aggregation daemon's time-series state.
//
// Series are keyed by (job, rank, metric) and sharded by key hash so
// concurrent ingest from many connections contends on different locks.
// Each series keeps fixed-window rollups — min/avg/max/count, the paper's
// Listing-2 statistic set — at two resolutions (a fine window and a
// coarse window of `coarseFactor` fine widths), with bounded retention
// per resolution: windows older than the newest minus the retention
// depth are evicted, and out-of-order arrivals inside the retention
// horizon merge into the correct window.  Sources that stop reporting
// are evicted wholesale after `staleSeconds` (deltadb-style history
// truncation: the store answers "now" and "recently", not "ever").
//
// Window layout: each series keeps one WindowBuffer per resolution, the
// retained (windowIndex, rollup) pairs sorted by index in one contiguous
// vector.  In-order ingest appends at the newest end, eviction advances a
// head offset over the oldest end (the dead prefix is erased once it is
// as long as the live part, so eviction is amortised O(1)), and a late
// window is placed by binary search.  A snapshot therefore copies two
// flat buffers per series, one allocation each, however many windows
// they retain (DESIGN.md §12).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace zerosum::aggregator {

struct StoreOptions {
  double fineWindowSeconds = 1.0;
  /// Coarse window = fine window x this factor.
  int coarseFactor = 10;
  /// Retention depth, in windows, per resolution.
  int fineRetentionWindows = 600;
  int coarseRetentionWindows = 360;
  /// A source is evicted after this long without any frame.
  double staleSeconds = 30.0;
  /// Shard count (power of two); more shards = less ingest contention.
  int shards = 8;
};

/// min/avg/max/count over one window (avg derived from sum/count).
struct Rollup {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  [[nodiscard]] double avg() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  void merge(double value) {
    if (count == 0) {
      min = max = value;
    } else {
      min = std::min(min, value);
      max = std::max(max, value);
    }
    sum += value;
    ++count;
  }

  /// Folds another partial rollup over the same window in (federation
  /// merge path).  Exact for min/max/count; the sum is exact arithmetic
  /// too, but bit-identity with a single sequential store holds only when
  /// the two inputs partition the records by series (then each series'
  /// sum was accumulated in the original ingest order).
  void combine(const Rollup& other) {
    if (other.count == 0) {
      return;
    }
    if (count == 0) {
      *this = other;
      return;
    }
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    sum += other.sum;
    count += other.count;
  }
};

struct SeriesKey {
  std::string job;
  int rank = 0;
  std::string metric;

  friend bool operator==(const SeriesKey&, const SeriesKey&) = default;
  friend auto operator<=>(const SeriesKey&, const SeriesKey&) = default;
};

/// One window of one series, as returned by queries.
struct WindowRollup {
  double windowStartSeconds = 0.0;
  double windowSeconds = 0.0;
  Rollup rollup;
};

enum class Resolution : std::uint8_t { kFine, kCoarse };

// The helpers below are inline: zs_tsdb uses this header without
// linking zs_aggregator.

/// 2^63: the first double past INT64_MAX; -2^63 is INT64_MIN exactly.
inline constexpr double kWindowIndexLimit = 9223372036854775808.0;

/// floor(t / windowSeconds) — the index of the window holding time t —
/// saturated to the int64 range, so a query bound past it (1e300, ±inf)
/// selects everything on its side instead of overflowing the cast.  t
/// must not be NaN.
[[nodiscard]] inline std::int64_t clampedWindowIndex(double t,
                                                     double windowSeconds) {
  const double index = std::floor(t / windowSeconds);
  if (index >= kWindowIndexLimit) {
    return std::numeric_limits<std::int64_t>::max();
  }
  if (index < -kWindowIndexLimit) {
    return std::numeric_limits<std::int64_t>::min();
  }
  return static_cast<std::int64_t>(index);
}

/// floor(t / windowSeconds) for a record being ingested, or nullopt when
/// the quotient is NaN or not representable as int64 (a finite but
/// absurd time such as 1e300): the ingest paths drop such a record
/// instead of filing it under a saturated index.
[[nodiscard]] inline std::optional<std::int64_t> ingestWindowIndex(
    double t, double windowSeconds) {
  const double index = std::floor(t / windowSeconds);
  if (!(index >= -kWindowIndexLimit && index < kWindowIndexLimit)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(index);
}

/// A query's numeric "rank" as a SeriesKey rank, truncated toward zero.
/// Throws ParseError when it is not finite or falls outside int.
[[nodiscard]] inline int rankFromNumber(double rank) {
  // Truncation maps (INT_MIN - 1, INT_MAX + 1) into int; NaN fails both
  // comparisons.
  constexpr double kBelow =
      static_cast<double>(std::numeric_limits<int>::min()) - 1.0;
  constexpr double kAbove =
      static_cast<double>(std::numeric_limits<int>::max()) + 1.0;
  if (!(rank > kBelow && rank < kAbove)) {
    throw ParseError("\"rank\" must be a finite number within the int range");
  }
  return static_cast<int>(rank);
}

/// One window flagged as modified since the last drainDirty() — what a
/// federation Forwarder ships upstream.  `rollup` is the window's
/// cumulative snapshot at drain time (see wire.hpp ForwardWindow).
struct DirtyWindow {
  SeriesKey key;
  Resolution resolution = Resolution::kFine;
  std::int64_t windowIndex = 0;
  Rollup rollup;
};

/// The retained windows of one series at one resolution: (windowIndex,
/// rollup) pairs sorted by index in one contiguous vector whose first
/// `head_` entries are evicted (see the layout note at the top of this
/// file).  Iteration yields the live windows, oldest first.
class WindowBuffer {
 public:
  using Entry = std::pair<std::int64_t, Rollup>;
  using const_iterator = std::vector<Entry>::const_iterator;

  WindowBuffer() = default;
  /// Copies only the live windows, in one allocation.
  WindowBuffer(const WindowBuffer& other)
      : entries_(other.begin(), other.end()) {}
  WindowBuffer(WindowBuffer&& other) noexcept
      : entries_(std::move(other.entries_)),
        head_(std::exchange(other.head_, 0)) {}
  /// Copy and move assignment: `other` was copied or moved in above.
  WindowBuffer& operator=(WindowBuffer other) noexcept {
    entries_.swap(other.entries_);
    std::swap(head_, other.head_);
    return *this;
  }

  [[nodiscard]] bool empty() const { return head_ == entries_.size(); }
  [[nodiscard]] std::size_t size() const { return entries_.size() - head_; }
  [[nodiscard]] const_iterator begin() const {
    return entries_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  /// The newest window; the buffer must not be empty.
  [[nodiscard]] const Entry& back() const { return entries_.back(); }

  /// The first window whose index is >= `index`.
  [[nodiscard]] const_iterator lowerBound(std::int64_t index) const;
  /// The window at `index`, or nullptr.
  [[nodiscard]] const Rollup* find(std::int64_t index) const;

  /// The window at `index`, inserted empty in index order when absent
  /// (appended when it is the newest); `second` is true if inserted.
  std::pair<Rollup*, bool> findOrInsert(std::int64_t index);

  /// Evicts every window older than `oldestKept`; returns how many.
  std::size_t evictBefore(std::int64_t oldestKept);

 private:
  std::vector<Entry> entries_;
  std::size_t head_ = 0;  ///< entries_[0, head_) are evicted
};

/// Point-in-time copy of one series' retained windows (both planes).
struct SeriesSnapshot {
  SeriesKey key;
  WindowBuffer fine;
  WindowBuffer coarse;
};

/// Immutable point-in-time copy of the whole store, taken under every
/// shard lock so no concurrent ingest can tear it (DESIGN.md §12).  The
/// query service hands one of these (behind a shared_ptr) to every
/// reader: a dashboard query runs against a frozen generation no matter
/// how hard ingest is advancing the live store underneath.
class StoreSnapshot {
 public:
  /// The store's data generation at the instant the copy was taken.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Newest window of a series at the given resolution.
  [[nodiscard]] std::optional<WindowRollup> latest(
      const SeriesKey& key, Resolution resolution = Resolution::kFine) const;

  /// Windows intersecting [t0, t1], oldest first.
  [[nodiscard]] std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution = Resolution::kFine) const;

  /// All captured series, sorted by (job, rank, metric).
  [[nodiscard]] const std::vector<SeriesSnapshot>& series() const {
    return series_;
  }

  [[nodiscard]] std::size_t seriesCount() const { return series_.size(); }
  [[nodiscard]] double fineWindowSeconds() const { return fineWindowSeconds_; }
  [[nodiscard]] double coarseWindowSeconds() const {
    return coarseWindowSeconds_;
  }

 private:
  friend class RollupStore;

  [[nodiscard]] const SeriesSnapshot* find(const SeriesKey& key) const;

  std::uint64_t generation_ = 0;
  double fineWindowSeconds_ = 1.0;
  double coarseWindowSeconds_ = 10.0;
  std::vector<SeriesSnapshot> series_;  ///< sorted by key
};

class RollupStore {
 private:
  struct Series;
  struct Shard;

 public:
  /// A resolved series handle for repeat ingestion.  The shard a key
  /// hashes to never changes, so it is cached once; the series node is
  /// cached until an eviction bumps the store generation, and then
  /// re-resolved lazily.  Callers that ingest the same series every
  /// period (the daemon) keep one ref per series and skip the per-record
  /// key hash and string-compare map walk.  Treat as opaque.
  struct SeriesRef {
    std::uint64_t generation = 0;
    Shard* shard = nullptr;
    Series* series = nullptr;
  };

  explicit RollupStore(StoreOptions options = {});

  /// Merges one observation into both resolutions.
  void ingest(const SeriesKey& key, double timeSeconds, double value);

  /// Same, through a cached handle: resolves `ref` on first use (or
  /// after an eviction invalidated it) and merges without hashing or
  /// comparing the key strings afterwards.
  void ingest(const SeriesKey& key, SeriesRef& ref, double timeSeconds,
              double value);

  /// Removes every series belonging to (job, rank).  Returns the number
  /// of series dropped.
  std::size_t evictSource(const std::string& job, int rank);

  // --- read-side snapshot surface (DESIGN.md §12) --------------------------

  /// Monotone counter bumped by every mutation (ingest, ingestWindow,
  /// evictSource, merge).  Two equal readings bracket an interval in
  /// which no data changed — the query cache's invalidation signal.
  [[nodiscard]] std::uint64_t dataGeneration() const {
    return dataGeneration_.load(std::memory_order_acquire);
  }

  /// Takes a point-in-time copy of every retained window under all shard
  /// locks (ingest stalls for the duration of the copy, which is why the
  /// query service rate-limits refreshes and shares one snapshot across
  /// readers).  The snapshot's generation() is read under the same
  /// locks, so it exactly identifies the copied state.
  [[nodiscard]] StoreSnapshot snapshot() const;

  // --- federation surface (DESIGN.md §11) ----------------------------------

  /// Applies one forwarded window snapshot: replaces the stored rollup
  /// when the incoming count is higher (a window's cumulative snapshot is
  /// monotone in count, so "more records seen" means "newer").  Returns
  /// false — a merge conflict, counted by the daemon — when the incoming
  /// snapshot is not newer than what is stored (a retransmit, a stale
  /// duplicate routed through a second parent, or two origins claiming
  /// the same series); the stored value is kept in that case unless the
  /// incoming one is strictly newer.  Respects retention exactly like
  /// ingest(): windows beyond the horizon are ignored.  A negative index
  /// is rejected outright: no honest producer emits one, since ingest()
  /// refuses t < 0.
  bool ingestWindow(const SeriesKey& key, Resolution resolution,
                    std::int64_t windowIndex, const Rollup& rollup);

  /// Folds every window of `other` into this store with
  /// Rollup::combine(), enforcing this store's retention bounds — the
  /// root's path to answering queries over the union of per-shard
  /// stores.  When the two stores partition series (consistent-hash
  /// sharding), the result is bit-identical to one store having ingested
  /// everything.
  void merge(const RollupStore& other);

  /// Turns on dirty-window tracking (off by default: the bookkeeping is
  /// only paid by daemons that host a Forwarder).  Every window touched
  /// by ingest()/ingestWindow() afterwards is queued for drainDirty().
  void enableDirtyTracking();
  [[nodiscard]] bool dirtyTrackingEnabled() const {
    return trackDirty_.load(std::memory_order_relaxed);
  }

  /// Moves up to `maxWindows` dirty windows into `out` (appended), each
  /// with a snapshot of its current cumulative rollup, and clears their
  /// dirty marks.  Windows evicted since they were marked are skipped.
  /// Returns the number appended.  More dirt may remain; callers loop.
  std::size_t drainDirty(std::vector<DirtyWindow>& out,
                         std::size_t maxWindows);

  /// Marks every retained window of every series dirty — the full-resync
  /// path after a forwarder reconnects or its upstream set changes.
  void markAllDirty();

  /// Dirty windows currently queued (approximate under concurrency).
  [[nodiscard]] std::size_t dirtyCount() const;

  /// Newest window of a series at the given resolution.
  [[nodiscard]] std::optional<WindowRollup> latest(
      const SeriesKey& key, Resolution resolution = Resolution::kFine) const;

  /// Windows intersecting [t0, t1], oldest first.
  [[nodiscard]] std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution = Resolution::kFine) const;

  /// All series keys, sorted (job, rank, metric).
  [[nodiscard]] std::vector<SeriesKey> keys() const;
  /// Keys restricted to one (job, rank).
  [[nodiscard]] std::vector<SeriesKey> keysOf(const std::string& job,
                                              int rank) const;

  [[nodiscard]] std::size_t seriesCount() const;
  [[nodiscard]] std::uint64_t samplesIngested() const;
  [[nodiscard]] std::uint64_t windowsEvicted() const;
  [[nodiscard]] const StoreOptions& options() const { return options_; }

 private:
  struct Series {
    /// Retained windows, bounded by the retention depth.
    WindowBuffer fine;
    WindowBuffer coarse;
    /// Window indices touched since the last drainDirty() (only
    /// maintained while dirty tracking is on).
    std::set<std::int64_t> dirtyFine;
    std::set<std::int64_t> dirtyCoarse;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::map<SeriesKey, Series> series;
    std::uint64_t ingested = 0;
    std::uint64_t evicted = 0;
    std::size_t dirty = 0;  ///< dirty-window marks queued in this shard
  };

  [[nodiscard]] Shard& shardOf(const SeriesKey& key);
  [[nodiscard]] const Shard& shardOf(const SeriesKey& key) const;
  [[nodiscard]] double windowSeconds(Resolution resolution) const;

  static void mergeBounded(WindowBuffer& windows, std::int64_t index,
                           double value, int retention,
                           std::uint64_t& evicted);

  /// The fine window index of an ingestable record, or nullopt for one
  /// ingest() ignores (non-finite, negative time, index not int64).
  [[nodiscard]] std::optional<std::int64_t> fineIndexOf(double timeSeconds,
                                                        double value) const;

  void mergeLocked(Series& series, std::int64_t fineIndex, double value,
                   Shard& shard);

  void markDirtyLocked(Series& series, Resolution resolution,
                       std::int64_t index, Shard& shard);

  StoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Bumped by evictSource; outstanding SeriesRefs from older
  /// generations re-resolve instead of touching freed nodes.
  std::atomic<std::uint64_t> generation_{1};
  /// Bumped by every data mutation; see dataGeneration().
  std::atomic<std::uint64_t> dataGeneration_{1};
  std::atomic<bool> trackDirty_{false};
};

}  // namespace zerosum::aggregator
