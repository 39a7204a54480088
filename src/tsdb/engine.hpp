// TsdbEngine: the durable single-writer time-series engine under the
// aggregation daemon (and, read-only, under zerosum-post).
//
// Write path: append() takes a batch keyed by ids — the job and metric
// names the daemon already interned — frames it into the WAL (CRC32,
// ZS_TSDB_FSYNC policy; each name written as its text), and merges it
// into in-memory fine + coarse rollup windows, the same windowing as
// aggregator::RollupStore.  A per-source table resolves each metric id
// to its hot series, and each series keeps its windows in two flat
// WindowBuffers.  When the active WAL grows past `walRotateBytes`,
// maybeCompact() seals the hot windows into an immutable compressed
// segment (codec.hpp), publishes it with an atomic rename, deletes the
// WAL files the segment covers, and starts a fresh WAL.  Compaction then
// empties the buffers of every series that got data and keeps them, with
// their capacity and table entries, so a steady stream allocates nothing
// per window; a series that got nothing for a whole cycle is erased, so
// memory stays bounded when sources leave.  No background threads: the
// owner drives compaction from its poll loop, so the engine is
// deterministic under the lockstep cluster simulation.
//
// Recovery (the constructor): open every segment whose footer verifies
// (a segment missing its footer is dropped whole and counted), compute
// the covered-WAL frontier, delete stale WAL files the segments already
// contain, replay the remaining WAL — tolerating a truncated, torn, or
// CRC-corrupt tail by dropping only the damaged suffix (counted) — and
// load the persisted source registry.  Because windows are mergeable
// aggregates (min/max/sum/count), a window split across a segment and
// the replayed WAL recombines exactly on read.
//
// Read path: range() looks a series up in each segment's sorted footer
// (one binary search per segment), decodes only its matching blocks, and
// merges them with the hot windows.  latest() and forEachNewest() read a
// sorted index instead: each on-disk series' newest fine and coarse
// window, already folded over the segments in segment order, which they
// merge with the hot state's newest window exactly as range() would.  The
// index is built at open (decoding only the blocks that hold a newest
// window), advanced from the hot windows at compaction, and repaired for
// the series a retention drop touches; the append path never sees it.
// forEachKey() merges the index's keys with the hot map's.  Reads treat
// a hot series whose buffers are empty as absent.  Not thread-safe: one
// owner (the daemon's poll loop or an offline tool) does everything.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "aggregator/store.hpp"
#include "common/interning.hpp"
#include "tsdb/segment.hpp"
#include "tsdb/wal.hpp"

namespace zerosum::tsdb {

using aggregator::NewestWindows;
using aggregator::WindowRollup;

struct EngineOptions {
  /// Rollup window widths, mirroring aggregator::StoreOptions.
  double fineWindowSeconds = 1.0;
  int coarseFactor = 10;
  /// WAL durability (ZS_TSDB_FSYNC).
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  std::uint64_t fsyncBatchBytes = 256 * 1024;
  /// Compact once the active WAL reaches this size.
  std::uint64_t walRotateBytes = 1U << 20;
  /// On-disk retention: oldest segments beyond either bound are deleted.
  int maxSegments = 64;
  std::uint64_t maxDiskBytes = 256ULL << 20;
  /// Read-only: never create, repair, or delete anything (offline
  /// queries over a data dir whose daemon is gone — or still running).
  bool readOnly = false;
};

/// Persisted registry entry for one (job, rank) source.
struct SourceRecord {
  std::string job;
  std::int32_t rank = 0;
  std::int32_t worldSize = 0;
  std::string hostname;
  std::int32_t pid = 0;
  double firstSeenSeconds = 0.0;
  double lastSeenSeconds = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t records = 0;

  friend bool operator==(const SourceRecord&, const SourceRecord&) = default;
};

struct EngineCounters {
  std::uint64_t batchesAppended = 0;
  std::uint64_t samplesAppended = 0;
  std::uint64_t compactions = 0;
  std::uint64_t segmentsWritten = 0;
  std::uint64_t segmentsDropped = 0;   ///< retention deletions
  std::uint64_t walReplayedBatches = 0;
  std::uint64_t walDamagedBytes = 0;   ///< recovery: dropped WAL suffix
  std::uint64_t walRepairs = 0;        ///< recovery: tails truncated
  std::uint64_t segmentsRejected = 0;  ///< recovery: unreadable segments
};

class Engine final : public aggregator::ReadView {
 public:
  /// Opens (recovering) or creates the data dir.  Throws ConfigError on
  /// bad options, StateError when the dir cannot be created/opened.
  explicit Engine(const std::string& dir, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- write side ----------------------------------------------------------

  /// Durably logs one batch and merges it into the hot windows.  Records
  /// with a non-finite time or value, or a negative time, are logged but
  /// not merged (RollupStore parity: negative values are kept); records
  /// named names::kInvalidId are neither, nor is any record of a batch
  /// whose job is names::kInvalidId.  Throws StateError in read-only mode
  /// or on I/O failure.
  void append(names::Id job, std::int32_t rank,
              std::span<const IdRecord> records);
  /// The same for a batch named by text: interns the job and each
  /// metric, then takes the id path.
  void append(std::string_view job, std::int32_t rank,
              const std::vector<Sample>& samples);

  /// Compacts when the active WAL is past the rotate threshold; returns
  /// true when a segment was written.
  bool maybeCompact();
  /// Unconditional WAL -> segment compaction (no-op when nothing is hot).
  void compact();

  /// Final flush: fsync the WAL, seal the hot windows into a segment,
  /// persist the registry.  The engine remains usable afterwards.
  void seal();

  /// Upserts one source registry entry (persisted at compact/seal).
  void noteSource(const SourceRecord& source);

  // --- read side -----------------------------------------------------------

  /// Windows intersecting [t0, t1], oldest first, merged across segments
  /// and the hot state.
  [[nodiscard]] std::vector<WindowRollup> range(
      const SeriesKey& key, double t0, double t1,
      Resolution resolution = Resolution::kFine) const override;

  /// Newest window of a series: the same rollup range() answers for that
  /// window.  Throws ParseError when a block holding it fails to decode.
  [[nodiscard]] std::optional<WindowRollup> latest(
      const SeriesKey& key, Resolution resolution = Resolution::kFine) const;

  /// Visits, in key order, every series of `job`, `rank` and `metric`
  /// (any when unset or empty) with its newest windows at both
  /// resolutions — latest()'s answers.  With a job it walks only that
  /// job's key range; without one it walks every key.  Throws like
  /// latest().
  void forEachNewest(const std::optional<std::string>& job,
                     std::optional<int> rank, const std::string& metric,
                     const NewestVisitor& visit) const override;
  /// The same over every metric.
  void forEachNewest(const std::optional<std::string>& job,
                     std::optional<int> rank,
                     const NewestVisitor& visit) const {
    forEachNewest(job, rank, {}, visit);
  }

  /// Visits, in key order, the keys of `job`, `rank` and `metric` (any
  /// when unset or empty): the union of disk and memory.  No block is
  /// decoded, so a damaged one does not fail the listing.
  void forEachKey(const std::optional<std::string>& job,
                  std::optional<int> rank, const std::string& metric,
                  const KeyVisitor& visit) const override;
  using ReadView::seriesKeys;
  /// Every series key.
  [[nodiscard]] std::vector<SeriesKey> seriesKeys() const {
    return seriesKeys(std::nullopt, std::nullopt, {});
  }

  /// Registry entries, sorted by (job, rank).
  [[nodiscard]] std::vector<SourceRecord> sources() const;

  /// Monotone counter bumped by every append() that merges at least one
  /// sample — the persistent read path's cache-invalidation signal,
  /// mirroring aggregator::RollupStore::dataGeneration().  Atomic so the
  /// query service can read it without the async-writer engine mutex.
  [[nodiscard]] std::uint64_t dataGeneration() const {
    return dataGeneration_.load(std::memory_order_acquire);
  }
  /// dataGeneration(), as a query stamps its answers.
  [[nodiscard]] std::uint64_t generation() const override {
    return dataGeneration();
  }

  [[nodiscard]] const EngineCounters& counters() const { return counters_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::size_t segmentCount() const { return segments_.size(); }
  [[nodiscard]] std::uint64_t walSizeBytes() const {
    return wal_ ? wal_->sizeBytes() : 0;
  }
  /// Total bytes across sealed segments.
  [[nodiscard]] std::uint64_t segmentBytes() const;

 private:
  struct LiveSegment {
    std::uint64_t seq = 0;
    std::unique_ptr<SegmentReader> reader;
  };

  /// A series' newest on-disk window at one resolution: its index, and
  /// its rollup folded over the live segments in segment order — what
  /// range() merges before the hot windows.  `damage` holds the
  /// ParseError of a block that holds the window and failed to decode.
  struct DiskNewest {
    std::int64_t window = 0;
    Rollup rollup;
    std::exception_ptr damage;

    /// Folds in the part of `window` that one footer entry's block holds
    /// (nothing unless the block ends at it), or records its damage.
    void fold(const SegmentReader& reader, const SegmentEntry& entry);
  };
  struct DiskSeries {
    std::optional<DiskNewest> fine;
    std::optional<DiskNewest> coarse;

    [[nodiscard]] std::optional<DiskNewest>& at(Resolution resolution) {
      return resolution == Resolution::kFine ? fine : coarse;
    }
    [[nodiscard]] const std::optional<DiskNewest>& at(
        Resolution resolution) const {
      return resolution == Resolution::kFine ? fine : coarse;
    }
  };

  [[nodiscard]] double windowSeconds(Resolution resolution) const;
  [[nodiscard]] std::string walPath(std::uint64_t seq) const;
  [[nodiscard]] std::string segmentPath(std::uint64_t seq) const;
  void recover();
  void replayWal(std::uint64_t seq, bool repairTail);
  /// Folds the records RollupStore::ingest would keep into hot_; returns
  /// how many.
  std::size_t mergeRecords(names::Id job, std::int32_t rank,
                           std::span<const IdRecord> records);
  /// After a compaction sealed hot_: erases the series that got no data
  /// since the previous one, and empties the rest, keeping their capacity.
  void recycleHot();
  /// Builds diskNewest_ from the live segments' footers (recovery).
  void indexSegments();
  /// The index rule recovery and a retention drop share: given one
  /// series' footer entries at one resolution, one span per live segment
  /// in segment order, its newest window folded over them in that order.
  [[nodiscard]] std::optional<DiskNewest> newestOf(
      std::span<const std::span<const SegmentEntry>> parts) const;
  /// Advances diskNewest_ by the hot windows a compaction just sealed.
  void indexHotWindows();
  /// Calls `visit(key, disk, hot)`, in key order, for every series of
  /// `job`, `rank` and `metric` (any when unset or empty) on disk or
  /// holding hot data; either pointer is null where the series is absent.
  template <typename Visit>
  void walkSeries(const std::optional<std::string>& job,
                  std::optional<int> rank, const std::string& metric,
                  Visit&& visit) const;
  /// The newest window of a series from its index entry and hot windows
  /// (either may be null), merged in range()'s order.
  [[nodiscard]] std::optional<WindowRollup> newestWindow(
      const DiskSeries* disk, const SeriesWindows* hot,
      Resolution resolution) const;
  void enforceRetention();
  void persistRegistry() const;
  void loadRegistry();
  void openWal();

  std::string dir_;
  EngineOptions options_;
  EngineCounters counters_;

  std::vector<LiveSegment> segments_;   ///< seq ascending
  /// Every key some live segment holds, with its newest on-disk windows.
  /// Maintained per segment, never per sample, so the append path pays
  /// nothing.
  std::map<SeriesKey, DiskSeries> diskNewest_;
  /// Every series merged into since the last compaction, and those that
  /// got data in the cycle before it (their buffers now empty).
  std::map<SeriesKey, SeriesWindows> hot_;
  /// (job id, rank) -> metric id -> hot series node: one lookup per batch,
  /// then one hash per record, instead of walking hot_, whose order
  /// compares name text.  Map nodes are
  /// stable, so a pointer stays valid until recycleHot() erases its
  /// series, which erases the pointer with it.
  std::map<std::pair<names::Id, std::int32_t>,
           std::unordered_map<names::Id, SeriesWindows*>>
      hotCache_;
  /// Records merged into hot_ since the last compaction: the test for
  /// hot data (an idle series' empty buffers are none).
  std::uint64_t hotRecords_ = 0;
  /// append(Sample) and WAL replay intern into this.
  std::vector<IdRecord> internScratch_;
  std::map<std::pair<std::string, std::int32_t>, SourceRecord> sources_;
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t activeWalSeq_ = 1;
  /// The lowest WAL sequence that may still exist on disk: compaction
  /// deletes from here up to the sequence its segment covers.
  std::uint64_t oldestWalSeq_ = 1;
  std::uint64_t nextSegmentSeq_ = 1;
  /// See dataGeneration().
  std::atomic<std::uint64_t> dataGeneration_{1};
};

}  // namespace zerosum::tsdb
