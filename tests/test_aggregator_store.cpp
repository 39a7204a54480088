// RollupStore: the rollup math is checked against a brute-force
// reference model (hold every sample, recompute windows from scratch)
// across window boundaries, eviction, and out-of-order arrival, and the
// whole store surface against a std::map model over random seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "aggregator/store.hpp"

using namespace zerosum::aggregator;

namespace {

/// Brute-force reference: remembers every (time, value) and recomputes
/// the retained windows exactly as documented.
class ReferenceModel {
 public:
  explicit ReferenceModel(const StoreOptions& options) : options_(options) {}

  void ingest(double timeSeconds, double value) {
    samples_.emplace_back(timeSeconds, value);
  }

  /// windowIndex -> rollup at the given resolution, retention applied.
  [[nodiscard]] std::map<std::int64_t, Rollup> windows(
      Resolution resolution) const {
    const double width = resolution == Resolution::kFine
                             ? options_.fineWindowSeconds
                             : options_.fineWindowSeconds *
                                   options_.coarseFactor;
    const int retention = resolution == Resolution::kFine
                              ? options_.fineRetentionWindows
                              : options_.coarseRetentionWindows;
    // Replay in arrival order, applying the store's rule: a sample
    // older than (newest seen so far) - retention + 1 is rejected;
    // otherwise it merges, and everything below the horizon is evicted.
    std::map<std::int64_t, Rollup> out;
    std::int64_t newest = std::numeric_limits<std::int64_t>::min();
    for (const auto& [t, v] : samples_) {
      const auto index =
          static_cast<std::int64_t>(std::floor(t / width));
      if (newest != std::numeric_limits<std::int64_t>::min() &&
          index <= newest - retention) {
        continue;  // too old: outside the retention horizon
      }
      out[index].merge(v);
      newest = std::max(newest, index);
      const std::int64_t horizon = newest - retention + 1;
      while (!out.empty() && out.begin()->first < horizon) {
        out.erase(out.begin());
      }
    }
    return out;
  }

 private:
  StoreOptions options_;
  std::vector<std::pair<double, double>> samples_;
};

void expectMatchesReference(const RollupStore& store,
                            const ReferenceModel& model,
                            const SeriesKey& key, Resolution resolution) {
  const double width = resolution == Resolution::kFine
                           ? store.options().fineWindowSeconds
                           : store.options().fineWindowSeconds *
                                 store.options().coarseFactor;
  const auto expected = model.windows(resolution);
  const auto actual = store.range(
      key, -1e12, 1e12, resolution);
  ASSERT_EQ(actual.size(), expected.size());
  std::size_t i = 0;
  for (const auto& [index, rollup] : expected) {
    const auto& window = actual[i++];
    EXPECT_DOUBLE_EQ(window.windowStartSeconds,
                     static_cast<double>(index) * width);
    EXPECT_DOUBLE_EQ(window.windowSeconds, width);
    EXPECT_DOUBLE_EQ(window.rollup.min, rollup.min);
    EXPECT_DOUBLE_EQ(window.rollup.max, rollup.max);
    EXPECT_DOUBLE_EQ(window.rollup.sum, rollup.sum);
    EXPECT_EQ(window.rollup.count, rollup.count);
  }
}

const SeriesKey kKey{"job", 0, "hwt.0.user_pct"};

}  // namespace

TEST(AggStore, SingleWindowStatisticsMatchListing2) {
  RollupStore store;
  for (double v : {10.0, 50.0, 30.0}) {
    store.ingest(kKey, 0.25, v);
  }
  const auto window = store.latest(kKey);
  ASSERT_TRUE(window.has_value());
  EXPECT_DOUBLE_EQ(window->rollup.min, 10.0);
  EXPECT_DOUBLE_EQ(window->rollup.max, 50.0);
  EXPECT_DOUBLE_EQ(window->rollup.avg(), 30.0);
  EXPECT_EQ(window->rollup.count, 3U);
}

TEST(AggStore, SamplesSplitAcrossWindowBoundaries) {
  StoreOptions options;
  options.fineWindowSeconds = 1.0;
  RollupStore store(options);
  ReferenceModel model(options);
  // Values straddling t=1.0 and t=2.0 boundaries, including exactly on
  // a boundary (belongs to the window it starts).
  for (const auto& [t, v] : std::vector<std::pair<double, double>>{
           {0.1, 1.0}, {0.9, 2.0}, {1.0, 3.0}, {1.999, 4.0}, {2.0, 5.0}}) {
    store.ingest(kKey, t, v);
    model.ingest(t, v);
  }
  expectMatchesReference(store, model, kKey, Resolution::kFine);
  expectMatchesReference(store, model, kKey, Resolution::kCoarse);
}

TEST(AggStore, RandomizedStreamMatchesBruteForceAtBothResolutions) {
  StoreOptions options;
  options.fineWindowSeconds = 1.0;
  options.coarseFactor = 5;
  options.fineRetentionWindows = 20;
  options.coarseRetentionWindows = 8;
  RollupStore store(options);
  ReferenceModel model(options);
  std::mt19937 rng(0xC0FFEEU);
  std::uniform_real_distribution<double> jitter(-3.0, 3.0);
  std::uniform_real_distribution<double> value(0.0, 100.0);
  double clock = 0.0;
  for (int i = 0; i < 2000; ++i) {
    clock += 0.05;
    // Out-of-order arrivals: up to 3 s of backwards jitter.
    const double t = std::max(0.0, clock + jitter(rng));
    const double v = value(rng);
    store.ingest(kKey, t, v);
    model.ingest(t, v);
  }
  expectMatchesReference(store, model, kKey, Resolution::kFine);
  expectMatchesReference(store, model, kKey, Resolution::kCoarse);
  EXPECT_EQ(store.samplesIngested(), 2000U);
}

TEST(AggStore, RetentionEvictsOldWindows) {
  StoreOptions options;
  options.fineWindowSeconds = 1.0;
  options.fineRetentionWindows = 5;
  RollupStore store(options);
  ReferenceModel model(options);
  for (int t = 0; t < 50; ++t) {
    store.ingest(kKey, static_cast<double>(t) + 0.5, 1.0);
    model.ingest(static_cast<double>(t) + 0.5, 1.0);
  }
  const auto windows = store.range(kKey, 0.0, 100.0);
  EXPECT_EQ(windows.size(), 5U);
  EXPECT_DOUBLE_EQ(windows.front().windowStartSeconds, 45.0);
  EXPECT_GT(store.windowsEvicted(), 0U);
  expectMatchesReference(store, model, kKey, Resolution::kFine);
}

TEST(AggStore, ArrivalOlderThanRetentionHorizonIsRejected) {
  StoreOptions options;
  options.fineWindowSeconds = 1.0;
  options.fineRetentionWindows = 5;
  RollupStore store(options);
  ReferenceModel model(options);
  store.ingest(kKey, 100.0, 1.0);
  model.ingest(100.0, 1.0);
  store.ingest(kKey, 10.0, 2.0);  // far below the horizon: dropped
  model.ingest(10.0, 2.0);
  const auto windows = store.range(kKey, 0.0, 200.0);
  ASSERT_EQ(windows.size(), 1U);
  EXPECT_DOUBLE_EQ(windows[0].windowStartSeconds, 100.0);
  expectMatchesReference(store, model, kKey, Resolution::kFine);
}

TEST(AggStore, OutOfOrderWithinHorizonMergesIntoCorrectWindow) {
  RollupStore store;
  store.ingest(kKey, 10.5, 1.0);
  store.ingest(kKey, 8.5, 3.0);  // late but retained
  store.ingest(kKey, 8.7, 5.0);
  const auto windows = store.range(kKey, 8.0, 11.0);
  ASSERT_EQ(windows.size(), 2U);
  EXPECT_DOUBLE_EQ(windows[0].windowStartSeconds, 8.0);
  EXPECT_EQ(windows[0].rollup.count, 2U);
  EXPECT_DOUBLE_EQ(windows[0].rollup.min, 3.0);
  EXPECT_DOUBLE_EQ(windows[0].rollup.max, 5.0);
}

TEST(AggStore, NonFiniteValuesAndNegativeTimesAreIgnored) {
  RollupStore store;
  store.ingest(kKey, 1.0, std::numeric_limits<double>::quiet_NaN());
  store.ingest(kKey, 1.0, std::numeric_limits<double>::infinity());
  store.ingest(kKey, -5.0, 1.0);
  store.ingest(kKey, std::numeric_limits<double>::quiet_NaN(), 1.0);
  EXPECT_EQ(store.samplesIngested(), 0U);
  EXPECT_FALSE(store.latest(kKey).has_value());
}

TEST(AggStore, EvictSourceDropsAllSeriesOfThatRankOnly) {
  RollupStore store;
  store.ingest({"job", 0, "a"}, 1.0, 1.0);
  store.ingest({"job", 0, "b"}, 1.0, 1.0);
  store.ingest({"job", 1, "a"}, 1.0, 1.0);
  store.ingest({"other", 0, "a"}, 1.0, 1.0);
  EXPECT_EQ(store.evictSource("job", 0), 2U);
  EXPECT_EQ(store.seriesCount(), 2U);
  EXPECT_TRUE(store.keysOf("job", 0).empty());
  EXPECT_EQ(store.keysOf("job", 1).size(), 1U);
}

TEST(AggStore, EvictSourceDropsExactlyItsOwnRunOfKeys) {
  // "jo" is a prefix of "job" and "job" of "job2", the ranks reach both
  // ends of int, and "" sorts before every other metric.  Where one
  // job's keys end, the next job's begin with the same rank (jo/0 then
  // job/0, job/INT_MAX then job2/INT_MAX), and each eviction below runs
  // while the sources on both sides of it are still there: a source's
  // run of keys must start and stop at its own.
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  const std::vector<std::pair<std::string, int>> sources = {
      {"jo", 0}, {"job", kMax}, {"jo", kMin},
      {"job", 0}, {"job2", kMax}, {"jo", -1}};
  const std::vector<std::string> metrics = {"", "a", "b"};
  RollupStore store;
  for (const auto& [job, rank] : sources) {
    for (const std::string& metric : metrics) {
      store.ingest({job, rank, metric}, 1.0, 1.0);
    }
  }
  std::vector<SeriesKey> remaining = store.keys();
  ASSERT_EQ(remaining.size(), sources.size() * metrics.size());
  for (const auto& [job, rank] : sources) {
    SCOPED_TRACE(job + " " + std::to_string(rank));
    std::vector<SeriesKey> own;
    for (const std::string& metric : metrics) {
      own.push_back({job, rank, metric});
    }
    EXPECT_EQ(store.keysOf(job, rank), own);
    EXPECT_EQ(store.evictSource(job, rank), metrics.size());
    std::erase_if(remaining, [&](const SeriesKey& key) {
      return key.jobName() == job && key.rank == rank;
    });
    EXPECT_EQ(store.keys(), remaining);
    EXPECT_TRUE(store.keysOf(job, rank).empty());
    EXPECT_EQ(store.evictSource(job, rank), 0U);
  }
  EXPECT_EQ(store.seriesCount(), 0U);
  // Each series held one fine and one coarse window.
  EXPECT_EQ(store.windowsEvicted(), 2 * sources.size() * metrics.size());
}

TEST(AggStore, EvictedSeriesLeaveTheDirtyQueueAndHeldRefsReResolve) {
  RollupStore store;
  store.enableDirtyTracking();
  const SeriesKey gone{"job", 0, "a"};
  const SeriesKey kept{"job", 1, "a"};
  RollupStore::SeriesRef ref;
  store.ingest(gone, ref, 1.5, 2.0);
  store.ingest(kept, 1.5, 3.0);
  store.ingest({"job", 0, ""}, 1.5, 4.0);
  EXPECT_EQ(store.dirtyCount(), 6U);  // a fine and a coarse window each
  EXPECT_EQ(store.evictSource("job", 0), 2U);
  EXPECT_EQ(store.dirtyCount(), 2U);
  SeriesBlocks blocks;
  EXPECT_EQ(store.drainDirty(blocks, 100), 2U);
  ASSERT_EQ(blocks.blocks().size(), 1U);
  EXPECT_EQ(blocks.blocks()[0].key, kept);
  EXPECT_EQ(store.dirtyCount(), 0U);

  // The source returns: the ref held across the eviction resolves to a
  // new series instead of the erased one.
  store.ingest(gone, ref, 2.5, 5.0);
  const auto rows = store.range(gone, 0.0, 10.0);
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0].windowStartSeconds, 2.0);
  EXPECT_EQ(rows[0].rollup.count, 1U);
  EXPECT_EQ(rows[0].rollup.sum, 5.0);
  EXPECT_EQ(store.seriesCount(), 2U);
  EXPECT_EQ(store.drainDirty(blocks, 100), 2U);
  ASSERT_EQ(blocks.blocks().size(), 1U);
  EXPECT_EQ(blocks.blocks()[0].key, gone);
}

TEST(AggStore, KeysAreSortedAndFiltered) {
  RollupStore store;
  store.ingest({"b", 1, "m"}, 1.0, 1.0);
  store.ingest({"a", 2, "m"}, 1.0, 1.0);
  store.ingest({"a", 1, "z"}, 1.0, 1.0);
  store.ingest({"a", 1, "m"}, 1.0, 1.0);
  const auto keys = store.keys();
  ASSERT_EQ(keys.size(), 4U);
  EXPECT_EQ(keys[0], (SeriesKey{"a", 1, "m"}));
  EXPECT_EQ(keys[1], (SeriesKey{"a", 1, "z"}));
  EXPECT_EQ(keys[2], (SeriesKey{"a", 2, "m"}));
  EXPECT_EQ(keys[3], (SeriesKey{"b", 1, "m"}));
}

TEST(AggStore, KeysOfMatchesTheFilteredKeyList) {
  RollupStore store;
  // "job" is a prefix of "job2": a source's run must stop at its own job.
  const std::vector<std::string> jobs = {"job", "job2", "other"};
  for (const std::string& job : jobs) {
    for (int rank = 0; rank < 8; ++rank) {
      for (int m = 0; m < 6; ++m) {
        store.ingest({job, rank, std::to_string(m)}, 1.0, 1.0);
      }
    }
  }
  const auto all = store.keys();
  for (const std::string& job : jobs) {
    for (int rank = -1; rank <= 8; ++rank) {
      std::vector<SeriesKey> expected;
      for (const SeriesKey& key : all) {
        if (key.jobName() == job && key.rank == rank) {
          expected.push_back(key);
        }
      }
      EXPECT_EQ(store.keysOf(job, rank), expected) << job << " " << rank;
    }
  }
  EXPECT_TRUE(store.keysOf("jo", 0).empty());
}

TEST(AggStore, OutOfRangeTimeBoundsSelectTheWholeHistory) {
  RollupStore store;
  for (int t = 0; t < 3; ++t) {
    store.ingest(kKey, static_cast<double>(t) + 0.5, 1.0);
  }
  const StoreSnapshot snap = store.snapshot();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [t0, t1] : std::vector<std::pair<double, double>>{
           {0.0, 1e300}, {-1e300, 1e18}, {-inf, inf}, {0.0, inf}}) {
    EXPECT_EQ(store.range(kKey, t0, t1).size(), 3U) << t0 << ".." << t1;
    EXPECT_EQ(snap.range(kKey, t0, t1).size(), 3U) << t0 << ".." << t1;
  }
  EXPECT_EQ(store.range(kKey, 0.0, 1e300, Resolution::kCoarse).size(), 1U);
  EXPECT_EQ(snap.range(kKey, -1e300, 0.0, Resolution::kCoarse).size(), 1U);
  for (const auto& [t0, t1] :
       std::vector<std::pair<double, double>>{{nan, 10.0}, {0.0, nan}}) {
    EXPECT_TRUE(store.range(kKey, t0, t1).empty());
    EXPECT_TRUE(snap.range(kKey, t0, t1).empty());
  }
}

TEST(AggStore, RangeQuerySelectsIntersectingWindowsOnly) {
  RollupStore store;
  for (int t = 0; t < 10; ++t) {
    store.ingest(kKey, static_cast<double>(t) + 0.5, 1.0);
  }
  const auto windows = store.range(kKey, 3.2, 5.8);
  ASSERT_EQ(windows.size(), 3U);  // windows starting at 3, 4, 5
  EXPECT_DOUBLE_EQ(windows.front().windowStartSeconds, 3.0);
  EXPECT_DOUBLE_EQ(windows.back().windowStartSeconds, 5.0);
}

// --- federation surface: ingestWindow / dirty tracking ----------------------

namespace {

/// One drained window with its series key.
struct DirtyWindow {
  SeriesKey key;
  Resolution resolution = Resolution::kFine;
  std::int64_t windowIndex = 0;
  Rollup rollup;
};

/// RollupStore::drainDirty() with its series blocks flattened, appended
/// to `out`; returns the number of windows drained.  Checks the block
/// shape on the way: one non-empty block per series, its windows in
/// strictly increasing (resolution, index) order.
std::size_t drainDirty(RollupStore& store, std::vector<DirtyWindow>& out,
                       std::size_t maxWindows) {
  SeriesBlocks blocks;
  const std::size_t drained = store.drainDirty(blocks, maxWindows);
  std::set<SeriesKey> seen;
  for (const SeriesBlocks::Block& block : blocks.blocks()) {
    EXPECT_TRUE(seen.insert(block.key).second) << block.key.metric;
    const auto windows = blocks.windows(block);
    EXPECT_FALSE(windows.empty()) << block.key.metric;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const WindowSnapshot& w = windows[i];
      if (i > 0) {
        const WindowSnapshot& prev = windows[i - 1];
        EXPECT_TRUE(std::tie(prev.resolution, prev.windowIndex) <
                    std::tie(w.resolution, w.windowIndex))
            << block.key.metric << " window " << w.windowIndex;
      }
      out.push_back({block.key, w.resolution, w.windowIndex, w.rollup});
    }
  }
  return drained;
}

}  // namespace

TEST(AggStoreWindow, IngestWindowReplacesOnlyWhenStrictlyNewer) {
  RollupStore store;
  const Rollup two{1.0, 5.0, 6.0, 2};
  EXPECT_TRUE(store.ingestWindow(kKey, Resolution::kFine, 7, two));
  // A retransmit of the same cumulative snapshot: conflict, kept as-is.
  EXPECT_FALSE(store.ingestWindow(kKey, Resolution::kFine, 7, two));
  // An older snapshot (fewer records seen): conflict.
  EXPECT_FALSE(
      store.ingestWindow(kKey, Resolution::kFine, 7, Rollup{1.0, 1.0, 1.0, 1}));
  EXPECT_DOUBLE_EQ(store.latest(kKey)->rollup.max, 5.0);
  // Strictly newer (higher count) replaces wholesale.
  EXPECT_TRUE(store.ingestWindow(kKey, Resolution::kFine, 7,
                                 Rollup{0.5, 9.0, 15.5, 3}));
  const auto window = store.latest(kKey);
  EXPECT_EQ(window->rollup.count, 3U);
  EXPECT_DOUBLE_EQ(window->rollup.min, 0.5);
  EXPECT_DOUBLE_EQ(window->rollup.sum, 15.5);
}

TEST(AggStoreWindow, IngestWindowBeyondRetentionHorizonIsRejected) {
  StoreOptions small;
  small.fineRetentionWindows = 4;
  RollupStore store((small));
  store.ingest(kKey, 100.5, 1.0);  // newest fine window index = 100
  EXPECT_FALSE(
      store.ingestWindow(kKey, Resolution::kFine, 90, Rollup{1, 1, 1, 1}));
  EXPECT_TRUE(
      store.ingestWindow(kKey, Resolution::kFine, 98, Rollup{1, 1, 1, 1}));
  EXPECT_EQ(store.range(kKey, -1e12, 1e12).size(), 2U);
}

TEST(AggStoreDirty, TrackingIsOffByDefaultAndDrainsSnapshots) {
  RollupStore store;
  store.ingest(kKey, 1.5, 1.0);
  EXPECT_EQ(store.dirtyCount(), 0U);  // off by default: no bookkeeping

  store.enableDirtyTracking();
  store.ingest(kKey, 1.6, 3.0);
  // One fine window + one coarse window touched.
  EXPECT_EQ(store.dirtyCount(), 2U);
  std::vector<DirtyWindow> drained;
  EXPECT_EQ(drainDirty(store, drained, 100), 2U);
  EXPECT_EQ(store.dirtyCount(), 0U);
  // The drained rollup is the window's full cumulative snapshot (both
  // records), not a delta since tracking was enabled.
  const auto fine =
      std::find_if(drained.begin(), drained.end(), [](const DirtyWindow& w) {
        return w.resolution == Resolution::kFine;
      });
  ASSERT_NE(fine, drained.end());
  EXPECT_EQ(fine->rollup.count, 2U);
  EXPECT_DOUBLE_EQ(fine->rollup.sum, 4.0);
  // Draining again with no new ingest yields nothing (marks cleared).
  EXPECT_EQ(drainDirty(store, drained, 100), 0U);
}

TEST(AggStoreDirty, MarkAllDirtyQueuesEveryRetainedWindow) {
  RollupStore store;
  store.enableDirtyTracking();
  for (int t = 0; t < 5; ++t) {
    store.ingest({"job", 0, "a"}, static_cast<double>(t) + 0.5, 1.0);
    store.ingest({"job", 1, "b"}, static_cast<double>(t) + 0.5, 1.0);
  }
  std::vector<DirtyWindow> drained;
  drainDirty(store, drained, 1000);
  drained.clear();
  store.markAllDirty();
  drainDirty(store, drained, 1000);
  // 2 series x (5 fine windows + 1 coarse window).
  EXPECT_EQ(drained.size(), 12U);
}

TEST(AggStoreDirty, DrainRespectsBudgetAndSkipsEvictedWindows) {
  StoreOptions small;
  small.fineRetentionWindows = 4;
  RollupStore store((small));
  store.enableDirtyTracking();
  store.ingest(kKey, 0.5, 1.0);
  // Budgeted drain: at most one window per call, the rest stays queued.
  std::vector<DirtyWindow> drained;
  EXPECT_EQ(drainDirty(store, drained, 1), 1U);
  EXPECT_EQ(store.dirtyCount(), 1U);
  drained.clear();
  // The still-queued window's fine entry is evicted before the drain:
  // jump far ahead so retention drops window 0.
  store.ingest(kKey, 100.5, 1.0);
  drainDirty(store, drained, 1000);
  for (const auto& window : drained) {
    if (window.resolution == Resolution::kFine) {
      EXPECT_GE(window.windowIndex, 97);  // window 0 never re-surfaces
    }
  }
}

// --- StoreSnapshot + dataGeneration (DESIGN.md §12) -------------------------

TEST(AggStoreSnapshot, DataGenerationBumpsOnEveryMutation) {
  RollupStore store;
  const std::uint64_t g0 = store.dataGeneration();
  store.ingest(kKey, 1.5, 1.0);
  const std::uint64_t g1 = store.dataGeneration();
  EXPECT_GT(g1, g0);
  store.ingestWindow(kKey, Resolution::kFine, 3, Rollup{2.0, 2.0, 2.0, 1});
  const std::uint64_t g2 = store.dataGeneration();
  EXPECT_GT(g2, g1);
  store.evictSource(kKey.jobName(), kKey.rank);
  EXPECT_GT(store.dataGeneration(), g2);
  // Reads do not bump it: equal readings bracket an unchanged interval.
  const std::uint64_t g3 = store.dataGeneration();
  (void)store.latest(kKey);
  (void)store.keys();
  (void)store.snapshot();
  EXPECT_EQ(store.dataGeneration(), g3);
}

TEST(AggStoreSnapshot, SnapshotCapturesEveryRetainedWindowImmutably) {
  RollupStore store;
  store.ingest({"job", 0, "a"}, 1.5, 10.0);
  store.ingest({"job", 0, "a"}, 2.5, 20.0);
  store.ingest({"job", 1, "b"}, 1.5, 30.0);

  const StoreSnapshot snap = store.snapshot();
  EXPECT_EQ(snap.generation(), store.dataGeneration());
  EXPECT_EQ(snap.seriesCount(), 2U);
  EXPECT_DOUBLE_EQ(snap.fineWindowSeconds(),
                   store.options().fineWindowSeconds);

  // Same answers as the live store, window for window...
  const SeriesKey a{"job", 0, "a"};
  const auto liveRange = store.range(a, 0.0, 10.0);
  const auto snapRange = snap.range(a, 0.0, 10.0);
  ASSERT_EQ(snapRange.size(), liveRange.size());
  for (std::size_t i = 0; i < snapRange.size(); ++i) {
    EXPECT_EQ(snapRange[i].windowStartSeconds,
              liveRange[i].windowStartSeconds);
    EXPECT_EQ(snapRange[i].rollup.count, liveRange[i].rollup.count);
    EXPECT_EQ(snapRange[i].rollup.sum, liveRange[i].rollup.sum);
  }
  ASSERT_TRUE(snap.latest(a).has_value());
  EXPECT_DOUBLE_EQ(snap.latest(a)->rollup.max, 20.0);
  // ...and a miss stays a miss.
  EXPECT_FALSE(snap.latest({"job", 9, "zz"}).has_value());

  // The copy is frozen: later ingest changes the store, not the snapshot.
  store.ingest(a, 2.7, 99.0);
  EXPECT_DOUBLE_EQ(store.latest(a)->rollup.max, 99.0);
  EXPECT_DOUBLE_EQ(snap.latest(a)->rollup.max, 20.0);
  EXPECT_LT(snap.generation(), store.dataGeneration());
}

TEST(AggStoreSnapshot, SeriesAreSortedAndBothResolutionsPresent) {
  RollupStore store;
  store.ingest({"b-job", 0, "m"}, 1.5, 1.0);
  store.ingest({"a-job", 5, "m"}, 12.5, 2.0);
  store.ingest({"a-job", 0, "m"}, 1.5, 3.0);

  const StoreSnapshot snap = store.snapshot();
  ASSERT_EQ(snap.series().size(), 3U);
  EXPECT_TRUE(std::is_sorted(
      snap.series().begin(), snap.series().end(),
      [](const SeriesSnapshot& x, const SeriesSnapshot& y) {
        return x.key < y.key;
      }));
  for (const SeriesSnapshot& series : snap.series()) {
    EXPECT_FALSE(series.fine.empty()) << series.key.metric;
    EXPECT_FALSE(series.coarse.empty()) << series.key.metric;
  }
  // Coarse windows answer through the snapshot too.
  const auto coarse =
      snap.latest({"a-job", 5, "m"}, Resolution::kCoarse);
  ASSERT_TRUE(coarse.has_value());
  EXPECT_DOUBLE_EQ(coarse->windowSeconds,
                   store.options().fineWindowSeconds *
                       store.options().coarseFactor);
}

// --- out-of-range input on the ingest side -----------------------------------

TEST(AggStore, TimesWhoseWindowIndexOverflowsAreIgnored) {
  RollupStore store;
  const std::uint64_t generation = store.dataGeneration();
  RollupStore::SeriesRef ref;
  for (const double t : {1e300, std::numeric_limits<double>::max(), 1e19}) {
    store.ingest(kKey, t, 1.0);
    store.ingest(kKey, ref, t, 1.0);
  }
  EXPECT_EQ(store.seriesCount(), 0U);
  EXPECT_EQ(store.samplesIngested(), 0U);
  EXPECT_EQ(store.dataGeneration(), generation);
  // Far in the future but indexable: still a sample.
  store.ingest(kKey, 1e15, 2.0);
  const auto latest = store.latest(kKey);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->windowStartSeconds, 1e15);
  EXPECT_EQ(latest->rollup.count, 1U);
}

TEST(AggStoreWindow, NegativeWindowIndicesAreRejected) {
  StoreOptions small;
  small.fineRetentionWindows = 4;
  RollupStore store((small));
  const Rollup one{1.0, 1.0, 1.0, 1};
  for (const std::int64_t index :
       {std::numeric_limits<std::int64_t>::min(), std::int64_t{-1}}) {
    EXPECT_FALSE(store.ingestWindow(kKey, Resolution::kFine, index, one));
  }
  EXPECT_EQ(store.seriesCount(), 0U);
  store.ingest(kKey, 2.5, 1.0);
  const std::uint64_t generation = store.dataGeneration();
  for (const std::int64_t index :
       {std::numeric_limits<std::int64_t>::min(), std::int64_t{-1}}) {
    EXPECT_FALSE(store.ingestWindow(kKey, Resolution::kFine, index, one));
    EXPECT_FALSE(store.ingestWindow(kKey, Resolution::kCoarse, index, one));
  }
  EXPECT_EQ(store.dataGeneration(), generation);
  EXPECT_EQ(store.samplesIngested(), 1U);
  EXPECT_EQ(store.windowsEvicted(), 0U);
  EXPECT_EQ(store.range(kKey, -1e12, 1e12).size(), 1U);
}

// --- random-seed property: the window buffers against std::map ----------------

namespace {

/// RollupStore's documented semantics written out over std::map windows
/// and std::set dirty marks — what every operation must leave behind,
/// independent of the store's buffer layout.  Callers pass only records
/// the store admits (finite, t >= 0).
class MapModel {
 public:
  struct Series {
    std::map<std::int64_t, Rollup> windows[2];  ///< by Resolution
    std::set<std::int64_t> dirty[2];
  };

  explicit MapModel(const StoreOptions& options) : options_(options) {}

  void enableDirtyTracking() { tracking_ = true; }

  void ingest(const SeriesKey& key, double t, double value) {
    Series& series = series_[key];
    ++generation_;
    ++ingested_;
    const auto fine =
        static_cast<std::int64_t>(std::floor(t / options_.fineWindowSeconds));
    mergeOne(series, Resolution::kFine, fine, value);
    mergeOne(series, Resolution::kCoarse, fine / options_.coarseFactor,
             value);
  }

  bool ingestWindow(const SeriesKey& key, Resolution resolution,
                    std::int64_t index, const Rollup& rollup) {
    if (index < 0) {
      return false;
    }
    Series& series = series_[key];
    auto& windows = series.windows[plane(resolution)];
    const std::int64_t newest =
        windows.empty() ? index : std::max(index, windows.rbegin()->first);
    const std::int64_t oldestKept = newest - retention(resolution) + 1;
    if (index < oldestKept) {
      return false;
    }
    const auto it = windows.find(index);
    if (it != windows.end() && rollup.count <= it->second.count) {
      return false;
    }
    windows[index] = rollup;
    mark(series, resolution, index);
    ++ingested_;
    ++generation_;
    evict(series, resolution, oldestKept);
    return true;
  }

  void evictSource(std::string_view job, int rank) {
    ++generation_;
    for (auto it = series_.begin(); it != series_.end();) {
      if (it->first.jobName() == job && it->first.rank == rank) {
        evicted_ += it->second.windows[0].size() + it->second.windows[1].size();
        it = series_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void markAllDirty() {
    for (auto& [key, series] : series_) {
      for (int p = 0; p < 2; ++p) {
        for (const auto& [index, rollup] : series.windows[p]) {
          series.dirty[p].insert(index);
        }
      }
    }
  }

  [[nodiscard]] std::size_t dirtyCount() const {
    std::size_t total = 0;
    for (const auto& [key, series] : series_) {
      total += series.dirty[0].size() + series.dirty[1].size();
    }
    return total;
  }

  /// Every queued mark whose window is still retained, with its current
  /// rollup; clears all marks.
  std::vector<DirtyWindow> drainAll() {
    std::vector<DirtyWindow> out;
    for (auto& [key, series] : series_) {
      for (const Resolution resolution :
           {Resolution::kFine, Resolution::kCoarse}) {
        auto& dirty = series.dirty[plane(resolution)];
        const auto& windows = series.windows[plane(resolution)];
        for (const std::int64_t index : dirty) {
          if (const auto it = windows.find(index); it != windows.end()) {
            out.push_back({key, resolution, index, it->second});
          }
        }
        dirty.clear();
      }
    }
    return out;
  }

  [[nodiscard]] const std::map<SeriesKey, Series>& series() const {
    return series_;
  }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t ingested() const { return ingested_; }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }

  static int plane(Resolution resolution) {
    return resolution == Resolution::kFine ? 0 : 1;
  }

 private:
  [[nodiscard]] int retention(Resolution resolution) const {
    return resolution == Resolution::kFine ? options_.fineRetentionWindows
                                           : options_.coarseRetentionWindows;
  }

  void mergeOne(Series& series, Resolution resolution, std::int64_t index,
                double value) {
    auto& windows = series.windows[plane(resolution)];
    const std::int64_t newest =
        windows.empty() ? index : std::max(index, windows.rbegin()->first);
    const std::int64_t oldestKept = newest - retention(resolution) + 1;
    // A record past the horizon merges nothing and marks nothing.
    if (index >= oldestKept) {
      windows[index].merge(value);
      mark(series, resolution, index);
      evict(series, resolution, oldestKept);
    }
  }

  void mark(Series& series, Resolution resolution, std::int64_t index) {
    if (tracking_) {
      series.dirty[plane(resolution)].insert(index);
    }
  }

  /// Evicts the windows older than `oldestKept`, and their dirty marks.
  void evict(Series& series, Resolution resolution, std::int64_t oldestKept) {
    auto& windows = series.windows[plane(resolution)];
    while (!windows.empty() && windows.begin()->first < oldestKept) {
      windows.erase(windows.begin());
      ++evicted_;
    }
    auto& dirty = series.dirty[plane(resolution)];
    dirty.erase(dirty.begin(), dirty.lower_bound(oldestKept));
  }

  StoreOptions options_;
  std::map<SeriesKey, Series> series_;
  bool tracking_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t ingested_ = 0;
  std::uint64_t evicted_ = 0;
};

bool sameRollup(const Rollup& a, const Rollup& b) {
  // Bit-identical: the store and the model fold in the same order.
  return std::memcmp(&a.min, &b.min, sizeof(double)) == 0 &&
         std::memcmp(&a.max, &b.max, sizeof(double)) == 0 &&
         std::memcmp(&a.sum, &b.sum, sizeof(double)) == 0 &&
         a.count == b.count;
}

bool sameWindows(const WindowBuffer& actual,
                 const std::map<std::int64_t, Rollup>& expected) {
  if (actual.size() != expected.size()) {
    return false;
  }
  auto it = expected.begin();
  for (const auto& [index, rollup] : actual) {
    if (index != it->first || !sameRollup(rollup, it->second)) {
      return false;
    }
    ++it;
  }
  return true;
}

bool dirtyLess(const DirtyWindow& a, const DirtyWindow& b) {
  return std::tie(a.key, a.resolution, a.windowIndex) <
         std::tie(b.key, b.resolution, b.windowIndex);
}

/// Every observable of the store against the model: counters, keys, each
/// plane's windows through range() and latest(), and the dirty queue.
void expectSameState(const RollupStore& store, const MapModel& model,
                     std::uint64_t generationBase) {
  EXPECT_EQ(store.dataGeneration() - generationBase, model.generation());
  EXPECT_EQ(store.samplesIngested(), model.ingested());
  EXPECT_EQ(store.windowsEvicted(), model.evicted());
  EXPECT_EQ(store.dirtyCount(), model.dirtyCount());
  std::vector<SeriesKey> keys;
  for (const auto& [key, series] : model.series()) {
    keys.push_back(key);
  }
  ASSERT_EQ(store.keys(), keys);
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [key, series] : model.series()) {
    for (const Resolution resolution :
         {Resolution::kFine, Resolution::kCoarse}) {
      const auto& expected = series.windows[MapModel::plane(resolution)];
      const double width =
          resolution == Resolution::kFine
              ? store.options().fineWindowSeconds
              : store.options().fineWindowSeconds * store.options().coarseFactor;
      const auto rows = store.range(key, -inf, inf, resolution);
      ASSERT_EQ(rows.size(), expected.size()) << key.metric;
      auto it = expected.begin();
      for (const WindowRollup& row : rows) {
        EXPECT_EQ(row.windowStartSeconds,
                  static_cast<double>(it->first) * width);
        EXPECT_TRUE(sameRollup(row.rollup, it->second)) << it->first;
        ++it;
      }
      const auto latest = store.latest(key, resolution);
      ASSERT_EQ(latest.has_value(), !expected.empty());
      if (latest) {
        EXPECT_TRUE(sameRollup(latest->rollup, expected.rbegin()->second));
      }
    }
  }
}

void expectSameSnapshot(const StoreSnapshot& snap, const RollupStore& store,
                        const MapModel& model) {
  EXPECT_EQ(snap.generation(), store.dataGeneration());
  ASSERT_EQ(snap.seriesCount(), model.series().size());
  auto it = model.series().begin();
  for (const SeriesSnapshot& series : snap.series()) {
    EXPECT_EQ(series.key, it->first);
    EXPECT_TRUE(sameWindows(series.fine, it->second.windows[0]))
        << series.key.metric;
    EXPECT_TRUE(sameWindows(series.coarse, it->second.windows[1]))
        << series.key.metric;
    ++it;
  }
}

/// Random ingest into a store and its model: mostly in order, some late
/// (a few inside the horizon, some past it), through the keyed and the
/// SeriesRef paths.
struct Feeder {
  std::mt19937_64 rng;
  std::vector<SeriesKey> keys;
  std::vector<RollupStore::SeriesRef> refs;
  double clock = 0.0;

  void step(RollupStore& store, MapModel& model, double lateSpan) {
    clock += std::uniform_real_distribution<double>(0.0, 0.9)(rng);
    const std::size_t k = rng() % keys.size();
    double t = clock;
    if (rng() % 4 == 0) {
      t = std::max(0.0, clock - std::uniform_real_distribution<double>(
                                    0.0, lateSpan)(rng));
    }
    const double value = std::normal_distribution<double>(50.0, 20.0)(rng);
    if (rng() % 2 == 0) {
      store.ingest(keys[k], t, value);
    } else {
      store.ingest(keys[k], refs[k], t, value);
    }
    model.ingest(keys[k], t, value);
  }
};

}  // namespace

TEST(AggStoreProperty, WindowBuffersMatchAMapModelOverRandomSeeds) {
  // Outcome tallies over all seeds, so the property cannot pass vacuously.
  std::size_t windowsAccepted = 0;
  std::size_t windowsRejected = 0;
  std::size_t windowsDrained = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    StoreOptions options;
    options.fineWindowSeconds = (rng() % 2 == 0) ? 1.0 : 0.5;
    options.coarseFactor = 2 + static_cast<int>(rng() % 3);
    options.fineRetentionWindows = 1 + static_cast<int>(rng() % 8);
    options.coarseRetentionWindows = 1 + static_cast<int>(rng() % 4);
    rng();  // discarded, so each seed keeps drawing the cases it always has
    // Late samples reach up to two horizons back, so some merge into an
    // older retained window and some are rejected.
    const double lateSpan = 2.0 * options.fineWindowSeconds *
                            options.fineRetentionWindows;

    RollupStore store(options);
    MapModel model(options);
    const std::uint64_t base = store.dataGeneration();
    Feeder feeder{std::mt19937_64(seed * 7919),
                  {{"job", 0, "cpu"}, {"job", 1, "cpu"}, {"job", 0, "mem"},
                   {"other", 3, "gpu.busy"}},
                  std::vector<RollupStore::SeriesRef>(4)};
    const bool trackFromStart = rng() % 2 == 0;
    if (trackFromStart) {
      store.enableDirtyTracking();
      model.enableDirtyTracking();
    }

    for (int step = 0; step < 1500; ++step) {
      if (step == 300 && !trackFromStart) {
        store.enableDirtyTracking();
        model.enableDirtyTracking();
      }
      const std::uint64_t op = rng() % 100;
      if (op < 70) {
        feeder.step(store, model, lateSpan);
      } else if (op < 82) {
        // A forwarded window snapshot near the newest index, with a count
        // that is sometimes newer than what is stored and sometimes not.
        const SeriesKey& key = feeder.keys[rng() % feeder.keys.size()];
        const Resolution resolution =
            rng() % 3 == 0 ? Resolution::kCoarse : Resolution::kFine;
        const double width = resolution == Resolution::kFine
                                 ? options.fineWindowSeconds
                                 : options.fineWindowSeconds *
                                       options.coarseFactor;
        const auto newest =
            static_cast<std::int64_t>(std::floor(feeder.clock / width));
        const std::int64_t index =
            newest + 1 - static_cast<std::int64_t>(rng() % 12);
        const double low = static_cast<double>(rng() % 50);
        const Rollup rollup{low, low + 10.0, low * 3.0 + 10.0,
                            1 + rng() % 6};
        const bool accepted =
            store.ingestWindow(key, resolution, index, rollup);
        EXPECT_EQ(accepted, model.ingestWindow(key, resolution, index, rollup))
            << "index " << index;
        ++(accepted ? windowsAccepted : windowsRejected);
      } else if (op < 86) {
        // Two discarded draws, so each seed keeps drawing the cases it
        // always has.
        rng();
        rng();
      } else if (op < 92) {
        // Drain in budgeted calls until empty: together they must equal
        // one full drain (no mutation in between).
        const std::size_t budget = 1 + rng() % 5;
        std::vector<DirtyWindow> drained;
        std::size_t got = 0;
        while ((got = drainDirty(store, drained, budget)) > 0) {
          EXPECT_LE(got, budget);
        }
        std::vector<DirtyWindow> expected = model.drainAll();
        std::sort(drained.begin(), drained.end(), dirtyLess);
        std::sort(expected.begin(), expected.end(), dirtyLess);
        ASSERT_EQ(drained.size(), expected.size());
        windowsDrained += drained.size();
        for (std::size_t i = 0; i < drained.size(); ++i) {
          EXPECT_EQ(drained[i].key, expected[i].key);
          EXPECT_EQ(drained[i].resolution, expected[i].resolution);
          EXPECT_EQ(drained[i].windowIndex, expected[i].windowIndex);
          EXPECT_TRUE(sameRollup(drained[i].rollup, expected[i].rollup));
        }
      } else if (op < 95) {
        store.markAllDirty();
        model.markAllDirty();
      } else if (op < 97) {
        const SeriesKey& key = feeder.keys[rng() % feeder.keys.size()];
        store.evictSource(key.jobName(), key.rank);
        model.evictSource(key.jobName(), key.rank);
      } else {
        const StoreSnapshot snap = store.snapshot();
        expectSameSnapshot(snap, store, model);
        // A copy of a snapshot holds the same windows.
        const StoreSnapshot copy = snap;
        expectSameSnapshot(copy, store, model);
      }
      expectSameState(store, model, base);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at step " << step;
      }
    }
    // Retention is a few windows, so eviction (and with it the buffers'
    // dead-prefix compaction) ran many times.
    EXPECT_GT(model.evicted(), 100U);
  }
  EXPECT_GT(windowsAccepted, 100U);
  EXPECT_GT(windowsRejected, 100U);
  EXPECT_GT(windowsDrained, 100U);
}

// --- chunked windows: deep retention, shared chunks, frozen snapshots ---------

namespace {

using FrozenSeries = std::map<SeriesKey, MapModel::Series>;

/// A snapshot against the model state it was taken from, window by window.
void expectFrozen(const StoreSnapshot& snap, const FrozenSeries& expected) {
  ASSERT_EQ(snap.seriesCount(), expected.size());
  auto it = expected.begin();
  for (const SeriesSnapshot& series : snap.series()) {
    EXPECT_EQ(series.key, it->first);
    EXPECT_TRUE(sameWindows(series.fine, it->second.windows[0]))
        << series.key.metric;
    EXPECT_TRUE(sameWindows(series.coarse, it->second.windows[1]))
        << series.key.metric;
    ++it;
  }
}

}  // namespace

TEST(AggStoreProperty, DeepRetentionStoreMatchesTheModelAndSnapshotsStayFrozen) {
  constexpr auto kChunk = static_cast<int>(WindowBuffer::kChunkWindows);
  std::size_t recordsMerged = 0;
  std::size_t forwardedAccepted = 0;
  std::size_t snapshotsChecked = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 104729);
    StoreOptions options;
    options.fineWindowSeconds = (rng() % 2 == 0) ? 1.0 : 0.5;
    options.coarseFactor = 2 + static_cast<int>(rng() % 3);
    // Two to five chunks deep, rarely chunk-aligned.
    options.fineRetentionWindows =
        2 * kChunk + static_cast<int>(rng() % (3 * kChunk));
    options.coarseRetentionWindows =
        kChunk + static_cast<int>(rng() % (2 * kChunk));
    rng();  // discarded, so each seed keeps drawing the cases it always has
    const double lateSpan = 1.5 * options.fineWindowSeconds *
                            options.fineRetentionWindows;

    RollupStore store(options);
    MapModel model(options);
    const std::uint64_t base = store.dataGeneration();
    store.enableDirtyTracking();
    model.enableDirtyTracking();
    Feeder feeder{std::mt19937_64(seed),
                  {{"job", 0, "cpu"}, {"job", 1, "cpu"}, {"job", 0, "mem"},
                   {"other", 3, "gpu.busy"}},
                  std::vector<RollupStore::SeriesRef>(4)};
    // Snapshots held across later writes, each with what it must read.
    std::vector<std::pair<StoreSnapshot, FrozenSeries>> held;
    const auto checkHeld = [&] {
      for (const auto& [snap, expected] : held) {
        expectFrozen(snap, expected);
        ++snapshotsChecked;
      }
    };

    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t op = rng() % 100;
      if (op < 70) {
        const std::size_t before = model.ingested();
        feeder.step(store, model, lateSpan);
        recordsMerged += model.ingested() - before;
      } else if (op < 85) {
        // A forwarded window anywhere in the retained span, or just past
        // it, newer than the stored one or not.
        const SeriesKey& key = feeder.keys[rng() % feeder.keys.size()];
        const Resolution resolution =
            rng() % 3 == 0 ? Resolution::kCoarse : Resolution::kFine;
        const double width = resolution == Resolution::kFine
                                 ? options.fineWindowSeconds
                                 : options.fineWindowSeconds *
                                       options.coarseFactor;
        const int depth = resolution == Resolution::kFine
                              ? options.fineRetentionWindows
                              : options.coarseRetentionWindows;
        const auto newest =
            static_cast<std::int64_t>(std::floor(feeder.clock / width));
        const std::int64_t index =
            newest + 1 -
            static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                                                   depth + 4));
        const double low = static_cast<double>(rng() % 50);
        const Rollup rollup{low, low + 10.0, low * 3.0 + 10.0,
                            1 + rng() % 6};
        const bool accepted =
            store.ingestWindow(key, resolution, index, rollup);
        EXPECT_EQ(accepted, model.ingestWindow(key, resolution, index, rollup))
            << "index " << index;
        forwardedAccepted += accepted ? 1 : 0;
      } else if (op < 88) {
        // Two discarded draws, so each seed keeps drawing the cases it
        // always has.
        rng();
        rng();
      } else if (op < 91) {
        std::vector<DirtyWindow> drained;
        while (drainDirty(store, drained, 64) > 0) {
        }
        EXPECT_EQ(drained.size(), model.drainAll().size());
      } else if (op < 93) {
        const SeriesKey& key = feeder.keys[rng() % feeder.keys.size()];
        store.evictSource(key.jobName(), key.rank);
        model.evictSource(key.jobName(), key.rank);
      } else {
        // Hold this snapshot in place of a random older one.
        StoreSnapshot snap = store.snapshot();
        expectSameSnapshot(snap, store, model);
        std::pair<StoreSnapshot, FrozenSeries> entry{std::move(snap),
                                                     model.series()};
        if (held.size() < 4) {
          held.push_back(std::move(entry));
        } else {
          held[rng() % held.size()] = std::move(entry);
        }
      }
      if (step % 25 == 0) {
        expectSameState(store, model, base);
        checkHeld();
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at step " << step;
      }
    }
    expectSameState(store, model, base);
    checkHeld();
    // Several chunks' worth of windows came and went.
    EXPECT_GT(model.evicted(), 8U * WindowBuffer::kChunkWindows);
  }
  EXPECT_GT(recordsMerged, 10000U);
  EXPECT_GT(forwardedAccepted, 1000U);
  EXPECT_GT(snapshotsChecked, 1000U);
}

TEST(AggStoreProperty, WindowBufferMatchesAFlatModelAndItsCopiesStayFrozen) {
  constexpr std::size_t kChunk = WindowBuffer::kChunkWindows;
  using Flat = std::vector<WindowBuffer::Entry>;
  const auto same = [](const WindowBuffer& actual, const Flat& expected) {
    if (actual.size() != expected.size() ||
        actual.empty() != expected.empty()) {
      return false;
    }
    auto it = expected.begin();
    for (const auto& [index, rollup] : actual) {
      if (index != it->first || !sameRollup(rollup, it->second)) {
        return false;
      }
      ++it;
    }
    return expected.empty() || (actual.back().first == expected.back().first &&
                                actual.rbegin()->first == expected.back().first);
  };
  std::size_t clears = 0;
  std::size_t copiesChecked = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 7727);
    const auto retention = static_cast<std::int64_t>(
        2 * kChunk + rng() % (4 * kChunk));
    WindowBuffer buffer;
    Flat flat;
    std::vector<std::pair<WindowBuffer, Flat>> copies;
    std::int64_t newest = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng() % 100;
      if (op < 80) {
        // Mostly the newest window or the next; sometimes a late one
        // anywhere in the span, which shifts windows across chunks.
        std::int64_t index = newest + static_cast<std::int64_t>(rng() % 2);
        if (rng() % 5 == 0) {
          index = newest - static_cast<std::int64_t>(
                               rng() % static_cast<std::uint64_t>(retention));
        }
        newest = std::max(newest, index);
        const double value = static_cast<double>(rng() % 1000);
        const auto pos = std::ranges::lower_bound(flat, index, {},
                                                  &WindowBuffer::Entry::first);
        const bool absent = pos == flat.end() || pos->first != index;
        auto [rollup, inserted] = buffer.findOrInsert(index);
        EXPECT_EQ(inserted, absent);
        rollup->merge(value);
        (absent ? flat.insert(pos, {index, Rollup{}}) : pos)->second.merge(
            value);
        const std::int64_t oldestKept = newest - retention + 1;
        const auto keep = std::ranges::lower_bound(
            flat, oldestKept, {}, &WindowBuffer::Entry::first);
        const auto evicted = static_cast<std::size_t>(keep - flat.begin());
        flat.erase(flat.begin(), keep);
        EXPECT_EQ(buffer.evictBefore(oldestKept), evicted);
      } else if (op < 82) {
        buffer.clear();
        flat.clear();
        ++clears;
      } else if (op < 84) {
        // A jump past the whole horizon empties the buffer by eviction.
        newest += retention + static_cast<std::int64_t>(rng() % kChunk);
        const std::int64_t oldestKept = newest - retention + 1;
        EXPECT_EQ(buffer.evictBefore(oldestKept), flat.size());
        flat.clear();
      } else if (op < 92) {
        // A copy of the whole buffer, or of a sub-range (as a wire
        // snapshot or range takes), held across later writes.
        std::pair<WindowBuffer, Flat> copy;
        if (rng() % 2 == 0 || flat.empty()) {
          copy = {buffer, flat};
        } else {
          const std::size_t from = rng() % flat.size();
          const std::size_t to = from + 1 + rng() % (flat.size() - from);
          const auto first = buffer.begin() + static_cast<std::ptrdiff_t>(from);
          const auto last = buffer.begin() + static_cast<std::ptrdiff_t>(to);
          copy = {buffer.slice(first, last),
                  Flat(flat.begin() + static_cast<std::ptrdiff_t>(from),
                       flat.begin() + static_cast<std::ptrdiff_t>(to))};
        }
        if (copies.size() < 6) {
          copies.push_back(std::move(copy));
        } else {
          copies[rng() % copies.size()] = std::move(copy);
        }
      } else if (op < 94 && !copies.empty()) {
        // A copy written to copies what it shares, leaving the buffer be.
        auto& [copy, expected] = copies[rng() % copies.size()];
        const std::int64_t index =
            expected.empty() ? 0 : expected.back().first + 1;
        copy.findOrInsert(index).first->merge(1.0);
        expected.push_back({index, Rollup{1.0, 1.0, 1.0, 1}});
      } else {
        // Move assignment and move construction keep the windows.
        WindowBuffer moved(std::move(buffer));
        buffer = WindowBuffer();
        buffer = std::move(moved);
      }
      ASSERT_TRUE(same(buffer, flat)) << "step " << step;
      for (const auto& [copy, expected] : copies) {
        ASSERT_TRUE(same(copy, expected)) << "copy, step " << step;
        ++copiesChecked;
      }
    }
  }
  EXPECT_GT(clears, 100U);
  EXPECT_GT(copiesChecked, 10000U);
}

TEST(AggStoreSnapshot, SeriesAreListedInKeyOrder) {
  std::mt19937_64 rng(29);
  std::vector<SeriesKey> keys;
  // "job" is a prefix of "job2": a job's run of keys must stop at its own.
  for (const char* job : {"a", "job", "job2", "zz"}) {
    for (int rank = -2; rank < 9; ++rank) {
      for (int m = 0; m < 12; ++m) {
        keys.push_back({job, rank, "metric." + std::to_string(rng() % 40)});
      }
    }
  }
  std::ranges::sort(keys);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const auto keysOf = [](const StoreSnapshot& snap) {
    std::vector<SeriesKey> out;
    for (const SeriesSnapshot& series : snap.series()) {
      out.push_back(series.key);
    }
    return out;
  };
  RollupStore store;
  std::vector<SeriesKey> shuffled = keys;
  std::ranges::shuffle(shuffled, rng);
  for (const SeriesKey& key : shuffled) {
    store.ingest(key, 1.5, 1.0);
  }
  EXPECT_EQ(keysOf(store.snapshot()), keys);
  EXPECT_EQ(keysOf(store.snapshotNewest(std::nullopt, std::nullopt, "")),
            keys);
  const std::string metric(keys[keys.size() / 2].metricName());
  std::vector<SeriesKey> filtered;
  std::vector<SeriesKey> ofJob;
  std::vector<SeriesKey> ofRank;
  for (const SeriesKey& key : keys) {
    if (key.jobName() == "job" && key.metricName() == metric) {
      filtered.push_back(key);
    }
    if (key.jobName() == "job") {
      ofJob.push_back(key);
    }
    if (key.jobName() == "job" && key.rank == 3) {
      ofRank.push_back(key);
    }
  }
  ASSERT_FALSE(filtered.empty());
  EXPECT_EQ(keysOf(store.snapshotNewest("job", std::nullopt, metric)),
            filtered);
  EXPECT_EQ(store.snapshot().seriesKeys("job", std::nullopt, metric),
            filtered);
  // A job's run of keys starts at its lowest rank, -2 here.
  EXPECT_EQ(keysOf(store.snapshotNewest("job", std::nullopt, "")), ofJob);
  EXPECT_EQ(keysOf(store.snapshotNewest("job", 3, "")), ofRank);
}

// Ingest on one thread while another takes snapshots and reads them
// twice: every window of a snapshot holds what was ingested into it, and
// reading it again after more ingest gives the same answer.  Run under
// ThreadSanitizer, this also checks that a write never touches a chunk a
// snapshot shares.
TEST(AggStoreConcurrency, SnapshotsStayFrozenWhileAnotherThreadIngests) {
  constexpr int kSeries = 24;
  constexpr int kPeriods = 1500;
  StoreOptions options;
  options.fineRetentionWindows = 3 * WindowBuffer::kChunkWindows + 5;
  options.coarseRetentionWindows = WindowBuffer::kChunkWindows + 3;
  RollupStore store(options);
  store.enableDirtyTracking();
  std::vector<SeriesKey> keys;
  for (int s = 0; s < kSeries; ++s) {
    keys.push_back({"job", s % 6, "metric.with.a.long.name." + std::to_string(s)});
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::vector<RollupStore::SeriesRef> refs(kSeries);
    SeriesBlocks blocks;
    for (int period = 0; period < kPeriods; ++period) {
      for (int s = 0; s < kSeries; ++s) {
        // Every record of fine window w has value w, so each window's
        // min and max are its index whatever else arrives.
        store.ingest(keys[s], refs[s], period + 0.25, period);
        if (period % 7 == 0 && period >= 3) {
          store.ingest(keys[s], period - 2.5, period - 3);  // late
        }
      }
      if (period % 5 == 0) {
        store.ingestWindow(keys[period % kSeries], Resolution::kFine, period,
                           Rollup{double(period), double(period),
                                  1000.0 * period, 1000});
      }
      store.drainDirty(blocks, 256);
    }
    done.store(true, std::memory_order_release);
  });
  const auto read = [](const StoreSnapshot& snap) {
    double total = 0.0;
    for (const SeriesSnapshot& series : snap.series()) {
      for (const auto& [index, rollup] : series.fine) {
        EXPECT_EQ(rollup.min, static_cast<double>(index));
        EXPECT_EQ(rollup.max, static_cast<double>(index));
        total += rollup.sum + static_cast<double>(rollup.count);
      }
      for (const auto& [index, rollup] : series.coarse) {
        total += rollup.sum + static_cast<double>(rollup.count);
      }
    }
    return total;
  };
  int snapshots = 0;
  while (!done.load(std::memory_order_acquire) || snapshots == 0) {
    const StoreSnapshot snap = store.snapshot();
    const double first = read(snap);
    std::this_thread::yield();
    EXPECT_EQ(read(snap), first);
    std::vector<SeriesKey> listed;
    for (const SeriesSnapshot& series : snap.series()) {
      listed.push_back(series.key);
    }
    EXPECT_TRUE(std::ranges::is_sorted(listed));
    ++snapshots;
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  writer.join();
  EXPECT_GT(snapshots, 0);
  EXPECT_EQ(store.seriesCount(), static_cast<std::size_t>(kSeries));
}
