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
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
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

// The helpers below, and WindowBuffer, are inline: zs_tsdb uses this
// header without linking zs_aggregator.

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

/// One window of one series as the federation ships it: drainDirty()
/// emits these and ingestWindows() applies them.  `rollup` is the
/// window's cumulative snapshot (see wire.hpp ForwardWindow).
struct WindowSnapshot {
  Resolution resolution = Resolution::kFine;
  std::int64_t windowIndex = 0;
  Rollup rollup;
};

/// What drainDirty() fills: one block per drained series, holding its key
/// once and then its windows in (resolution, index) order.  A caller that
/// passes the same buffer to every drain reuses its capacity, keys
/// included, so a steady-state drain allocates nothing.
class SeriesBlocks {
 public:
  struct Block {
    SeriesKey key;
    std::size_t first = 0;  ///< the block's windows: [first, first + count)
    std::size_t count = 0;
  };
  [[nodiscard]] std::span<const Block> blocks() const {
    return {blocks_.data(), size_};
  }
  [[nodiscard]] std::span<const WindowSnapshot> windows(
      const Block& block) const {
    return {windows_.data() + block.first, block.count};
  }

 private:
  friend class RollupStore;
  std::vector<Block> blocks_;  ///< [0, size_) are live; the rest are spare
  std::size_t size_ = 0;
  std::vector<WindowSnapshot> windows_;
};

/// The retained windows of one series at one resolution: (windowIndex,
/// rollup) pairs sorted by index in one contiguous vector whose first
/// `head_` entries are evicted (see the layout note at the top of this
/// file).  Iteration yields the live windows, oldest first.
class WindowBuffer {
 public:
  using Entry = std::pair<std::int64_t, Rollup>;
  using const_iterator = std::vector<Entry>::const_iterator;
  using const_reverse_iterator = std::vector<Entry>::const_reverse_iterator;

  WindowBuffer() = default;
  /// Copies only the live windows, in one allocation.
  WindowBuffer(const WindowBuffer& other)
      : entries_(other.begin(), other.end()) {}
  /// Copies the windows [first, last) of another buffer.
  WindowBuffer(const_iterator first, const_iterator last)
      : entries_(first, last) {}
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
  /// The newest window first.
  [[nodiscard]] const_reverse_iterator rbegin() const {
    return entries_.rbegin();
  }
  /// The newest window; the buffer must not be empty.
  [[nodiscard]] const Entry& back() const { return entries_.back(); }

  /// The first window whose index is >= `index`.
  [[nodiscard]] const_iterator lowerBound(std::int64_t index) const {
    return std::ranges::lower_bound(begin(), end(), index, {}, &Entry::first);
  }

  /// The windows, each `width` seconds wide, intersecting [t0, t1]: none
  /// when a bound is NaN or t1 < t0.
  [[nodiscard]] std::pair<const_iterator, const_iterator> between(
      double t0, double t1, double width) const {
    if (std::isnan(t0) || std::isnan(t1) || t1 < t0) {
      return {end(), end()};
    }
    const auto first = lowerBound(clampedWindowIndex(t0, width));
    const std::int64_t lastIndex = clampedWindowIndex(t1, width);
    auto last = first;
    while (last != end() && last->first <= lastIndex) {
      ++last;
    }
    return {first, last};
  }

  /// The oldest index a `retention`-deep horizon keeps once `index`
  /// lands (index >= 0 and retention >= 1, so this cannot overflow).
  [[nodiscard]] std::int64_t oldestKept(std::int64_t index,
                                        int retention) const {
    return (empty() ? index : std::max(index, back().first)) - retention + 1;
  }

  /// The window at `index`, inserted empty in index order when absent
  /// (appended when it is the newest); `second` is true if inserted.
  std::pair<Rollup*, bool> findOrInsert(std::int64_t index) {
    if (empty() || index > entries_.back().first) {
      entries_.emplace_back(index, Rollup{});
      return {&entries_.back().second, true};
    }
    if (index == entries_.back().first) {
      return {&entries_.back().second, false};
    }
    // A late window: binary search among the live entries.
    const auto pos = entries_.begin() + (lowerBound(index) - entries_.cbegin());
    if (pos->first == index) {
      return {&pos->second, false};
    }
    return {&entries_.insert(pos, Entry{index, Rollup{}})->second, true};
  }

  /// Evicts every window older than `oldestKept`; returns how many.
  std::size_t evictBefore(std::int64_t oldestKept) {
    const std::size_t firstLive = head_;
    while (head_ < entries_.size() && entries_[head_].first < oldestKept) {
      ++head_;
    }
    const std::size_t evicted = head_ - firstLive;
    // Erase the dead prefix once it is at least as long as the live part:
    // each erase moves no more entries than were evicted since the last
    // one, which keeps eviction amortised O(1).
    if (head_ > 0 && head_ >= size()) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return evicted;
  }

  /// Drops every window and keeps the capacity, so refilling the buffer
  /// to its old size allocates nothing.
  void clear() {
    entries_.clear();
    head_ = 0;
  }

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

/// A series' newest fine and coarse windows.
struct NewestWindows {
  std::optional<WindowRollup> fine;
  std::optional<WindowRollup> coarse;
};

/// True when `key` is of `job`, `rank` and `metric` (any when unset or
/// empty): the series filter of every query.
[[nodiscard]] inline bool keyMatches(const SeriesKey& key,
                                     const std::optional<std::string>& job,
                                     std::optional<int> rank,
                                     const std::string& metric) {
  return (!job || key.job == *job) && (!rank || key.rank == *rank) &&
         (metric.empty() || key.metric == metric);
}

/// What a query reads (aggregator/query.hpp): a StoreSnapshot's frozen
/// windows or a tsdb::Engine's whole history.  Each query op is written
/// once against this, so every entry point answers it alike.  A series
/// the filters of seriesKeys() or forEachNewest() exclude is compared,
/// never copied or read.
class ReadView {
 public:
  using NewestVisitor =
      std::function<void(const SeriesKey&, const NewestWindows&)>;

  /// The data generation the view reads at.
  [[nodiscard]] virtual std::uint64_t generation() const = 0;

  /// The keys of every series of `job`, `rank` and `metric` (any when
  /// unset or empty), sorted; no window is read.
  [[nodiscard]] virtual std::vector<SeriesKey> seriesKeys(
      const std::optional<std::string>& job, std::optional<int> rank,
      const std::string& metric) const = 0;

  /// Visits, in key order, every series of `job`, `rank` and `metric`
  /// with its newest windows at both resolutions.
  virtual void forEachNewest(const std::optional<std::string>& job,
                             std::optional<int> rank,
                             const std::string& metric,
                             const NewestVisitor& visit) const = 0;

  /// Windows of `key` intersecting [t0, t1], oldest first.
  [[nodiscard]] virtual std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution) const = 0;
};

/// Immutable copy of the store (RollupStore::snapshot(), taken under
/// every shard lock so no concurrent ingest can tear it; DESIGN.md §12),
/// or of the part of it one wire query reads (snapshotNewest(),
/// snapshotRange()).  The query service hands one whole copy (behind a
/// shared_ptr) to every reader: a dashboard query runs against a frozen
/// generation no matter how hard ingest is advancing the live store
/// underneath.
class StoreSnapshot final : public ReadView {
 public:
  /// The store's data generation at the instant the copy was taken.
  [[nodiscard]] std::uint64_t generation() const override {
    return generation_;
  }

  /// Newest window of a series at the given resolution.
  [[nodiscard]] std::optional<WindowRollup> latest(
      const SeriesKey& key, Resolution resolution = Resolution::kFine) const;

  [[nodiscard]] std::vector<SeriesKey> seriesKeys(
      const std::optional<std::string>& job, std::optional<int> rank,
      const std::string& metric) const override;

  void forEachNewest(const std::optional<std::string>& job,
                     std::optional<int> rank, const std::string& metric,
                     const NewestVisitor& visit) const override;

  /// Windows intersecting [t0, t1], oldest first.
  [[nodiscard]] std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution = Resolution::kFine) const override;

  /// All captured series, sorted by (job, rank, metric).
  [[nodiscard]] const std::vector<SeriesSnapshot>& series() const {
    return series_;
  }

  [[nodiscard]] std::size_t seriesCount() const { return series_.size(); }
  [[nodiscard]] double fineWindowSeconds() const { return fineWindowSeconds_; }

 private:
  friend class RollupStore;

  [[nodiscard]] const SeriesSnapshot* find(const SeriesKey& key) const;
  [[nodiscard]] double windowSeconds(Resolution resolution) const {
    return resolution == Resolution::kFine ? fineWindowSeconds_
                                           : coarseWindowSeconds_;
  }
  /// The newest of `windows`, `width` seconds wide.
  [[nodiscard]] static std::optional<WindowRollup> newest(
      const WindowBuffer& windows, double width);

  std::uint64_t generation_ = 0;
  double fineWindowSeconds_ = 1.0;
  double coarseWindowSeconds_ = 10.0;
  std::vector<SeriesSnapshot> series_;  ///< sorted by key
};

class RollupStore {
 private:
  struct Series;
  struct Shard;
  /// A series map node: dirty lists and SeriesRefs point at these.
  using SeriesNode = std::pair<const SeriesKey, Series>;

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
    SeriesNode* series = nullptr;
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

  /// Monotone counter bumped by every mutation (ingest, ingestWindows,
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

  /// A copy of only each resolution's newest window of the series of
  /// `job`, `rank` and `metric` (any when unset or empty): what a wire
  /// `snapshot` reads.  It takes one shard lock at a time, so each
  /// series' windows are of one instant but different shards' need not
  /// be; its generation() is the one read before the first lock.
  [[nodiscard]] StoreSnapshot snapshotNewest(
      const std::optional<std::string>& job, std::optional<int> rank,
      const std::string& metric) const;

  /// A copy of one series' windows at `resolution` that intersect
  /// [t0, t1], taken under its shard's lock alone: what a wire `range`
  /// reads.
  [[nodiscard]] StoreSnapshot snapshotRange(const SeriesKey& key, double t0,
                                            double t1,
                                            Resolution resolution) const;

  // --- federation surface (DESIGN.md §11) ----------------------------------

  /// Applies forwarded window snapshots of one series in order, under
  /// one shard lock and one series lookup, and returns how many applied.
  /// Each replaces the stored rollup only when its count is higher (a
  /// cumulative snapshot is monotone in count: more records seen means
  /// newer).  The rest are merge conflicts, counted by the daemon: not
  /// newer (a retransmit, a duplicate routed through a second parent,
  /// two origins claiming one series), beyond the retention horizon (as
  /// for ingest()), or hostile (zero count, non-finite value, or a
  /// negative index, which no honest producer emits).
  std::size_t ingestWindows(const SeriesKey& key,
                            std::span<const WindowSnapshot> windows);

  /// One forwarded window: ingestWindows() over a single snapshot.
  bool ingestWindow(const SeriesKey& key, Resolution resolution,
                    std::int64_t windowIndex, const Rollup& rollup) {
    const WindowSnapshot window{resolution, windowIndex, rollup};
    return ingestWindows(key, {&window, 1}) == 1;
  }

  /// Folds every window of `other` into this store with
  /// Rollup::combine(), enforcing this store's retention bounds — the
  /// root's path to answering queries over the union of per-shard
  /// stores.  When the two stores partition series (consistent-hash
  /// sharding), the result is bit-identical to one store having ingested
  /// everything.
  void merge(const RollupStore& other);

  /// Turns on dirty-window tracking (off by default: the bookkeeping is
  /// only paid by daemons that host a Forwarder).  Every retained window
  /// touched by ingest()/ingestWindows() afterwards is marked for
  /// drainDirty(); eviction drops the marks of the windows it removes.
  void enableDirtyTracking();

  /// Replaces `out` with up to `maxWindows` dirty windows (a snapshot of
  /// each one's cumulative rollup) and clears their marks.  Windows
  /// evicted since they were marked are skipped; a series the budget
  /// splits stays first in the queue.  Returns the number drained.  More
  /// dirt may remain; callers loop.
  std::size_t drainDirty(SeriesBlocks& out, std::size_t maxWindows);

  /// Marks every retained window of every series dirty — the full-resync
  /// path after a forwarder reconnects or its upstream set changes.
  void markAllDirty();

  /// Dirty windows currently queued (approximate under concurrency).
  [[nodiscard]] std::size_t dirtyCount() const;

  /// Newest window of a series at the given resolution.
  [[nodiscard]] std::optional<WindowRollup> latest(
      const SeriesKey& key, Resolution resolution = Resolution::kFine) const;

  /// Windows intersecting [t0, t1], oldest first: snapshotRange()'s.
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
  /// One resolution of one series.
  struct Plane {
    /// Retained windows, bounded by the retention depth.
    WindowBuffer windows;
    /// Sorted, unique indices of retained windows touched since they were
    /// last drained (dirty tracking only); keeps capacity across drains.
    std::vector<std::int64_t> dirty;
  };

  struct Series {
    Plane planes[2];      ///< indexed by Resolution
    bool listed = false;  ///< on its shard's dirtySeries list

    Plane& operator[](Resolution r) { return planes[static_cast<int>(r)]; }
    const Plane& operator[](Resolution r) const {
      return planes[static_cast<int>(r)];
    }
  };

  struct Shard {
    mutable std::mutex mutex;
    std::map<SeriesKey, Series> series;
    /// Series marked dirty since they were last drained, in the order of
    /// their first mark; drains visit only these.  Nodes of `series`:
    /// evictSource() unlists a series before erasing it.
    std::vector<SeriesNode*> dirtySeries;
    std::uint64_t ingested = 0;
    std::uint64_t evicted = 0;
    std::size_t dirty = 0;  ///< dirty-window marks queued in this shard
  };

  /// An empty snapshot with this store's window widths.
  [[nodiscard]] StoreSnapshot emptySnapshot() const;

  [[nodiscard]] Shard& shardOf(const SeriesKey& key);
  [[nodiscard]] const Shard& shardOf(const SeriesKey& key) const;
  [[nodiscard]] double windowSeconds(Resolution resolution) const;
  [[nodiscard]] int retention(Resolution resolution) const;

  /// The fine window index of an ingestable record, or nullopt for one
  /// ingest() ignores (non-finite, negative time, index not int64).
  [[nodiscard]] std::optional<std::int64_t> fineIndexOf(double timeSeconds,
                                                        double value) const;

  void mergeLocked(SeriesNode& node, std::int64_t fineIndex, double value,
                   Shard& shard);

  void markDirtyLocked(SeriesNode& node, Resolution resolution,
                       std::int64_t index, Shard& shard);

  /// Evicts the plane's windows older than `oldestKept`, and their marks.
  static void evictLocked(Plane& plane, std::int64_t oldestKept,
                          Shard& shard);

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
