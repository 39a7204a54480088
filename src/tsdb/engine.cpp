#include "tsdb/engine.hpp"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "trace/metrics.hpp"

namespace fs = std::filesystem;

namespace zerosum::tsdb {

namespace {

constexpr const char* kWalPrefix = "wal-";
constexpr const char* kWalSuffix = ".log";
constexpr const char* kSegmentPrefix = "segment-";
constexpr const char* kSegmentSuffix = ".zss";
constexpr const char* kRegistryFile = "registry.json";

/// "wal-00000012.log" -> 12; nullopt when the name is not ours.
std::optional<std::uint64_t> parseSeq(const std::string& name,
                                      const char* prefix,
                                      const char* suffix) {
  const std::string pre(prefix);
  const std::string suf(suffix);
  if (name.size() <= pre.size() + suf.size() ||
      name.compare(0, pre.size(), pre) != 0 ||
      name.compare(name.size() - suf.size(), suf.size(), suf) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(pre.size(), name.size() - pre.size() - suf.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  try {
    return std::stoull(digits);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string seqName(const char* prefix, std::uint64_t seq,
                    const char* suffix) {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%08llu",
                static_cast<unsigned long long>(seq));
  return std::string(prefix) + digits + suffix;
}

trace::Counter& recoveryCounter(const char* name) {
  return trace::MetricsRegistry::instance().counter(name);
}

/// One step of an ordered walk over a sorted map: advances `it` to `key`,
/// inserting a default value there when the map lacks the key.
template <typename Map>
typename Map::iterator seek(Map& map, typename Map::iterator it,
                            const typename Map::key_type& key) {
  while (it != map.end() && it->first < key) {
    ++it;
  }
  if (it == map.end() || it->first != key) {
    it = map.emplace_hint(it, key, typename Map::mapped_type{});
  }
  return it;
}

}  // namespace

Engine::Engine(const std::string& dir, EngineOptions options)
    : dir_(dir), options_(options) {
  if (!(options_.fineWindowSeconds > 0.0)) {  // NaN fails too
    throw ConfigError("tsdb: fine window must be positive");
  }
  if (options_.coarseFactor < 2) {
    throw ConfigError("tsdb: coarse factor must be >= 2");
  }
  if (options_.maxSegments < 1) {
    throw ConfigError("tsdb: maxSegments must be >= 1");
  }
  if (options_.walRotateBytes == 0) {
    throw ConfigError("tsdb: walRotateBytes must be positive");
  }
  std::error_code ec;
  if (options_.readOnly) {
    if (!fs::is_directory(dir_, ec)) {
      throw StateError("tsdb: data dir " + dir_ + " does not exist");
    }
  } else {
    fs::create_directories(dir_, ec);
    if (ec) {
      throw StateError("tsdb: cannot create data dir " + dir_ + ": " +
                       ec.message());
    }
  }
  recover();
  if (!options_.readOnly) {
    openWal();
  }
}

Engine::~Engine() = default;

double Engine::windowSeconds(Resolution resolution) const {
  return resolution == Resolution::kFine
             ? options_.fineWindowSeconds
             : options_.fineWindowSeconds * options_.coarseFactor;
}

std::string Engine::walPath(std::uint64_t seq) const {
  return dir_ + "/" + seqName(kWalPrefix, seq, kWalSuffix);
}

std::string Engine::segmentPath(std::uint64_t seq) const {
  return dir_ + "/" + seqName(kSegmentPrefix, seq, kSegmentSuffix);
}

void Engine::recover() {
  // Inventory the directory once.
  std::vector<std::uint64_t> walSeqs;
  std::vector<std::uint64_t> segmentSeqs;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (const auto seq = parseSeq(name, kWalPrefix, kWalSuffix)) {
      walSeqs.push_back(*seq);
    } else if (const auto sseq =
                   parseSeq(name, kSegmentPrefix, kSegmentSuffix)) {
      segmentSeqs.push_back(*sseq);
    }
  }
  std::sort(walSeqs.begin(), walSeqs.end());
  std::sort(segmentSeqs.begin(), segmentSeqs.end());

  // Open every segment that verifies; drop (but never delete) the rest.
  // A segment that fails its footer CRC — e.g. a file truncated below
  // the trailing magic — cannot be partially trusted, so it is skipped
  // whole and counted.
  std::uint64_t walCovered = 0;
  for (const std::uint64_t seq : segmentSeqs) {
    try {
      auto reader = std::make_unique<SegmentReader>(segmentPath(seq));
      walCovered = std::max(walCovered, reader->meta().walSeqCovered);
      segments_.push_back({seq, std::move(reader)});
    } catch (const ParseError&) {
      ++counters_.segmentsRejected;
      recoveryCounter("zs.tsdb.recovery.segments_dropped").add();
    }
    nextSegmentSeq_ = std::max(nextSegmentSeq_, seq + 1);
  }
  indexSegments();
  // An offline reader doesn't know the daemon's window widths; adopt
  // them from the newest segment so range indexing matches the writer.
  if (options_.readOnly && !segments_.empty()) {
    const SegmentMeta& meta = segments_.back().reader->meta();
    options_.fineWindowSeconds = meta.fineWindowSeconds;
    options_.coarseFactor = meta.coarseFactor;
  }

  // WAL files at or below the covered frontier are fully contained in a
  // segment; a crash between "segment renamed" and "WAL unlinked" leaves
  // them behind, and replaying them would double-count.  Finish the
  // interrupted deletion instead.
  for (const std::uint64_t seq : walSeqs) {
    if (seq <= walCovered) {
      if (!options_.readOnly) {
        std::error_code ec;
        fs::remove(walPath(seq), ec);
      }
      continue;
    }
    activeWalSeq_ = std::max(activeWalSeq_, seq);
    // Only the newest WAL was ever mid-append; older ones were sealed by
    // a rotation, so damage there is also a crash artifact — but only
    // the newest is repaired, because only it will be appended to again.
    const bool newest = (seq == walSeqs.back());
    replayWal(seq, newest && !options_.readOnly);
  }
  activeWalSeq_ = std::max(activeWalSeq_, walCovered + 1);
  const auto firstLive = std::ranges::upper_bound(walSeqs, walCovered);
  oldestWalSeq_ = firstLive != walSeqs.end() ? *firstLive : activeWalSeq_;
  loadRegistry();
}

void Engine::replayWal(std::uint64_t seq, bool repairTail) {
  const std::string path = walPath(seq);
  WalReadResult result = readWal(path);
  for (const WalBatch& batch : result.batches) {
    internScratch_.clear();
    internSamples(batch.samples, internScratch_);
    mergeRecords(names::intern(batch.job), batch.rank, internScratch_);
    ++counters_.walReplayedBatches;
  }
  if (result.damagedBytes > 0) {
    counters_.walDamagedBytes += result.damagedBytes;
    recoveryCounter("zs.tsdb.recovery.wal_truncations").add();
    if (repairTail) {
      repairWal(path, result);
      ++counters_.walRepairs;
    }
  }
}

void Engine::openWal() {
  if (wal_) {
    wal_->reopen(walPath(activeWalSeq_));  // keeps the frame buffer
    return;
  }
  wal_ = std::make_unique<WalWriter>(walPath(activeWalSeq_), options_.fsync,
                                     options_.fsyncBatchBytes);
}

std::size_t Engine::mergeRecords(names::Id job, std::int32_t rank,
                                 std::span<const IdRecord> records) {
  if (job == names::kInvalidId) {
    return 0;  // a job the interner refused (replay) keys nothing
  }
  auto& series = hotCache_[{job, rank}];
  std::size_t merged = 0;
  for (const IdRecord& record : records) {
    if (record.name == names::kInvalidId ||
        !std::isfinite(record.timeSeconds) || !std::isfinite(record.value) ||
        record.timeSeconds < 0.0) {
      continue;  // RollupStore::ingest parity: ignore hostile input
    }
    const auto fineIndex = aggregator::ingestWindowIndex(
        record.timeSeconds, options_.fineWindowSeconds);
    if (!fineIndex) {
      continue;  // ... and a time too large to index (1e300)
    }
    // The hot_ map is only touched the first time a series is seen, and
    // again after compaction erased it as idle.
    SeriesWindows*& cached = series[record.name];
    if (cached == nullptr) {
      cached = &hot_[SeriesKey{job, rank, record.name}];
    }
    cached->fine.findOrInsert(*fineIndex).first->merge(record.value);
    // fineIndex >= 0 (t >= 0), so integer division is the floor.
    cached->coarse.findOrInsert(*fineIndex / options_.coarseFactor)
        .first->merge(record.value);
    ++merged;
  }
  counters_.samplesAppended += merged;
  hotRecords_ += merged;
  return merged;
}

void Engine::append(names::Id job, std::int32_t rank,
                    std::span<const IdRecord> records) {
  if (options_.readOnly) {
    throw StateError("tsdb: append on read-only engine");
  }
  if (records.empty() || job == names::kInvalidId) {
    return;  // nothing, or nothing to file it under
  }
  wal_->append(names::lookup(job), rank, records);  // durable first ...
  const std::size_t merged = mergeRecords(job, rank, records);  // visible
  ++counters_.batchesAppended;
  if (merged > 0) {
    dataGeneration_.fetch_add(1, std::memory_order_release);
  }
}

void Engine::append(std::string_view job, std::int32_t rank,
                    const std::vector<Sample>& samples) {
  internScratch_.clear();
  internSamples(samples, internScratch_);
  append(names::intern(job), rank, internScratch_);
}

bool Engine::maybeCompact() {
  if (options_.readOnly || !wal_ ||
      wal_->sizeBytes() < options_.walRotateBytes) {
    return false;
  }
  compact();
  return true;
}

void Engine::compact() {
  if (options_.readOnly) {
    throw StateError("tsdb: compact on read-only engine");
  }
  if (hotRecords_ == 0) {
    return;
  }
  // Crash-consistent rotation protocol, in order:
  //   1. seal the active WAL (sync + close);
  //   2. write the segment covering every WAL up to and including it —
  //      the atomic rename is the commit point;
  //   3. delete the covered WAL files (a crash before this is repaired
  //      at recovery via walSeqCovered);
  //   4. start a fresh WAL and empty the hot windows it replaces.
  wal_->close();
  const std::uint64_t covered = activeWalSeq_;
  const std::uint64_t segSeq = nextSegmentSeq_;
  SegmentMeta meta;
  meta.fineWindowSeconds = options_.fineWindowSeconds;
  meta.coarseFactor = options_.coarseFactor;
  meta.walSeqCovered = covered;
  writeSegment(segmentPath(segSeq), hot_, meta);
  ++nextSegmentSeq_;
  ++counters_.segmentsWritten;
  ++counters_.compactions;

  segments_.push_back(
      {segSeq, std::make_unique<SegmentReader>(segmentPath(segSeq))});
  indexHotWindows();
  activeWalSeq_ = covered + 1;
  // A WAL whose unlink fails stays the oldest that can exist, so the next
  // compaction retries it; one already gone removes without error.
  std::uint64_t oldest = activeWalSeq_;
  for (std::uint64_t seq = oldestWalSeq_; seq <= covered; ++seq) {
    std::error_code ec;
    fs::remove(walPath(seq), ec);
    if (ec) {
      oldest = std::min(oldest, seq);
    }
  }
  oldestWalSeq_ = oldest;
  openWal();
  recycleHot();
  enforceRetention();
  persistRegistry();
}

void Engine::recycleHot() {
  // A series still empty here got no data since the previous compaction.
  for (auto source = hotCache_.begin(); source != hotCache_.end();) {
    std::erase_if(source->second,
                  [](const auto& entry) { return entry.second->empty(); });
    source = source->second.empty() ? hotCache_.erase(source)
                                    : std::next(source);
  }
  std::erase_if(hot_, [](const auto& entry) { return entry.second.empty(); });
  for (auto& [key, windows] : hot_) {
    windows.fine.clear();
    windows.coarse.clear();
  }
  hotRecords_ = 0;
}

void Engine::seal() {
  if (options_.readOnly) {
    return;
  }
  if (hotRecords_ > 0) {
    compact();  // includes the WAL sync and registry persist
  } else {
    if (wal_) {
      wal_->sync();
    }
    persistRegistry();
  }
}

void Engine::enforceRetention() {
  const auto overBudget = [this] {
    if (segments_.size() > static_cast<std::size_t>(options_.maxSegments)) {
      return true;
    }
    return segmentBytes() > options_.maxDiskBytes;
  };
  // Only a series whose newest on-disk window has a part in a dropped
  // segment needs its index entry recomputed; the others keep theirs.
  std::vector<SeriesKey> stale;
  while (segments_.size() > 1 && overBudget()) {
    const SegmentReader& victim = *segments_.front().reader;
    auto slot = diskNewest_.cbegin();
    for (const SegmentEntry& entry : victim.entries()) {
      while (slot != diskNewest_.cend() && slot->first < entry.key) {
        ++slot;
      }
      if (slot == diskNewest_.cend() || slot->first != entry.key) {
        continue;
      }
      const auto& newest = slot->second.at(entry.resolution);
      if (newest && newest->window == entry.maxWindow) {
        stale.push_back(entry.key);
      }
    }
    const std::string path = victim.path();
    segments_.erase(segments_.begin());
    std::error_code ec;
    fs::remove(path, ec);
    ++counters_.segmentsDropped;
  }
  std::ranges::sort(stale);
  const auto repeated = std::ranges::unique(stale);
  stale.erase(repeated.begin(), repeated.end());
  std::vector<std::span<const SegmentEntry>> parts(segments_.size());
  for (const SeriesKey& key : stale) {
    DiskSeries fresh;
    for (const Resolution resolution :
         {Resolution::kFine, Resolution::kCoarse}) {
      for (std::size_t i = 0; i < segments_.size(); ++i) {
        parts[i] = segments_[i].reader->find(key, resolution);
      }
      fresh.at(resolution) = newestOf(parts);
    }
    if (!fresh.fine && !fresh.coarse) {
      diskNewest_.erase(key);  // its last segment is gone
    } else {
      diskNewest_[key] = std::move(fresh);
    }
  }
}

void Engine::DiskNewest::fold(const SegmentReader& reader,
                              const SegmentEntry& entry) {
  if (entry.maxWindow != window || damage) {
    return;  // the block ends before this window, or a read throws anyway
  }
  try {
    for (const auto& [index, part] : reader.readWindows(entry)) {
      if (index == window) {
        rollup.combine(part);
      }
    }
  } catch (const ParseError&) {
    damage = std::current_exception();
  }
}

std::optional<Engine::DiskNewest> Engine::newestOf(
    std::span<const std::span<const SegmentEntry>> parts) const {
  // The newest window any segment holds, then its parts folded in
  // segment order, as range() merges them.
  std::optional<DiskNewest> newest;
  for (const std::span<const SegmentEntry> part : parts) {
    for (const SegmentEntry& entry : part) {
      if (!newest || newest->window < entry.maxWindow) {
        newest = DiskNewest{entry.maxWindow, {}, {}};
      }
    }
  }
  if (newest) {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      for (const SegmentEntry& entry : parts[i]) {
        newest->fold(*segments_[i].reader, entry);
      }
    }
  }
  return newest;
}

void Engine::indexSegments() {
  // One ordered walk per footer lists every on-disk key.  A second walk,
  // over the index with one cursor per footer, hands each series' entries
  // to newestOf() without a per-key search (which made opening ~1.5x
  // slower on a 5-segment, 4 640-series dir).
  for (const LiveSegment& segment : segments_) {
    auto slot = diskNewest_.begin();
    for (const SegmentEntry& entry : segment.reader->entries()) {
      slot = seek(diskNewest_, slot, entry.key);
    }
  }
  std::vector<std::size_t> cursors(segments_.size(), 0);
  std::vector<std::span<const SegmentEntry>> parts(segments_.size());
  for (auto& [key, series] : diskNewest_) {
    for (const Resolution resolution :
         {Resolution::kFine, Resolution::kCoarse}) {
      const auto wanted = std::tie(key, resolution);
      for (std::size_t i = 0; i < segments_.size(); ++i) {
        const std::span<const SegmentEntry> entries =
            segments_[i].reader->entries();
        const auto at = [&](std::size_t j) {
          return std::tie(entries[j].key, entries[j].resolution);
        };
        std::size_t& first = cursors[i];
        while (first < entries.size() && at(first) < wanted) {
          ++first;
        }
        std::size_t last = first;
        while (last < entries.size() && at(last) == wanted) {
          ++last;
        }
        parts[i] = entries.subspan(first, last - first);
        first = last;
      }
      series.at(resolution) = newestOf(parts);
    }
  }
}

void Engine::indexHotWindows() {
  // The sealed segment is the newest, so each series' newest hot window
  // either replaces its index entry or, for the same window, folds in
  // last.  hot_ and the index are both sorted: one walk, no search, and
  // no block decode.
  auto slot = diskNewest_.begin();
  for (const auto& [key, windows] : hot_) {
    if (windows.empty()) {
      continue;  // idle this cycle: nothing sealed
    }
    slot = seek(diskNewest_, slot, key);
    for (const Resolution resolution :
         {Resolution::kFine, Resolution::kCoarse}) {
      const auto& sealed =
          resolution == Resolution::kFine ? windows.fine : windows.coarse;
      if (sealed.empty()) {
        continue;
      }
      const auto& [index, rollup] = sealed.back();
      std::optional<DiskNewest>& newest = slot->second.at(resolution);
      if (!newest || newest->window < index) {
        newest = DiskNewest{index, rollup, {}};
      } else if (newest->window == index && !newest->damage) {
        newest->rollup.combine(rollup);
      }
    }
  }
}

std::uint64_t Engine::segmentBytes() const {
  std::uint64_t total = 0;
  for (const LiveSegment& segment : segments_) {
    total += segment.reader->sizeBytes();
  }
  return total;
}

void Engine::noteSource(const SourceRecord& source) {
  SourceRecord& slot = sources_[{source.job, source.rank}];
  const bool fresh = slot.job.empty();
  if (fresh) {
    slot = source;
    return;
  }
  // Merge: keep the earliest first-seen, newest everything else.
  const double firstSeen =
      std::min(slot.firstSeenSeconds, source.firstSeenSeconds);
  slot = source;
  slot.firstSeenSeconds = firstSeen;
}

std::vector<WindowRollup> Engine::range(const SeriesKey& key, double t0,
                                        double t1,
                                        Resolution resolution) const {
  std::vector<WindowRollup> out;
  if (std::isnan(t0) || std::isnan(t1) || t1 < t0) {
    return out;
  }
  const double width = windowSeconds(resolution);
  const std::int64_t first = aggregator::clampedWindowIndex(t0, width);
  const std::int64_t last = aggregator::clampedWindowIndex(t1, width);

  // A window may be split across several segments plus the hot state;
  // Rollup::combine is associative, so accumulating in index order
  // reconstructs the same rollup a single store would have held.
  std::map<std::int64_t, Rollup> merged;
  for (const LiveSegment& segment : segments_) {
    for (const SegmentEntry& entry : segment.reader->find(key, resolution)) {
      if (entry.maxWindow < first || entry.minWindow > last) {
        continue;
      }
      for (const auto& [index, rollup] : segment.reader->readWindows(entry)) {
        if (index < first || index > last) {
          continue;
        }
        merged[index].combine(rollup);
      }
    }
  }
  const auto hotIt = hot_.find(key);
  if (hotIt != hot_.end()) {
    const auto& windows = resolution == Resolution::kFine
                              ? hotIt->second.fine
                              : hotIt->second.coarse;
    for (auto w = windows.lowerBound(first);
         w != windows.end() && w->first <= last; ++w) {
      merged[w->first].combine(w->second);
    }
  }

  out.reserve(merged.size());
  for (const auto& [index, rollup] : merged) {
    WindowRollup row;
    row.windowStartSeconds = static_cast<double>(index) * width;
    row.windowSeconds = width;
    row.rollup = rollup;
    out.push_back(row);
  }
  return out;
}

std::optional<WindowRollup> Engine::newestWindow(
    const DiskSeries* disk, const SeriesWindows* hot,
    Resolution resolution) const {
  const DiskNewest* sealed = nullptr;
  if (disk != nullptr && disk->at(resolution)) {
    sealed = &*disk->at(resolution);
  }
  const aggregator::WindowBuffer::Entry* live = nullptr;
  if (hot != nullptr) {
    const auto& windows =
        resolution == Resolution::kFine ? hot->fine : hot->coarse;
    if (!windows.empty()) {
      live = &windows.back();
    }
  }
  if (sealed == nullptr && live == nullptr) {
    return std::nullopt;
  }
  WindowRollup row;
  std::int64_t index = 0;
  if (live == nullptr || (sealed != nullptr && sealed->window >= live->first)) {
    if (sealed->damage) {
      std::rethrow_exception(sealed->damage);
    }
    index = sealed->window;
    row.rollup = sealed->rollup;
    if (live != nullptr && live->first == index) {
      row.rollup.combine(live->second);  // range(): disk, then hot
    }
  } else {
    index = live->first;
    row.rollup = live->second;
  }
  row.windowSeconds = windowSeconds(resolution);
  row.windowStartSeconds = static_cast<double>(index) * row.windowSeconds;
  return row;
}

std::optional<WindowRollup> Engine::latest(const SeriesKey& key,
                                           Resolution resolution) const {
  const auto disk = diskNewest_.find(key);
  const auto hot = hot_.find(key);
  return newestWindow(disk != diskNewest_.end() ? &disk->second : nullptr,
                      hot != hot_.end() ? &hot->second : nullptr, resolution);
}

template <typename Visit>
void Engine::walkSeries(const std::optional<std::string>& job,
                        std::optional<int> rank, const std::string& metric,
                        Visit&& visit) const {
  // A job's keys (of one rank, when asked) are one contiguous key range
  // starting at {job, rank, kInvalidId}, which sorts before every stored
  // metric; without a job, one walk of every key skips the other ranks.
  // Both maps are merged in key order.
  const auto filter = aggregator::seriesFilter(job, rank, metric);
  if (!filter) {
    return;  // a name never interned: no series carries it
  }
  const auto inRange = [&](const SeriesKey& key) {
    return !filter->job ||
           (key.job == *filter->job && (!rank || key.rank == *rank));
  };
  auto disk = diskNewest_.begin();
  auto hot = hot_.begin();
  if (filter->job) {
    const SeriesKey from{*filter->job,
                         rank.value_or(std::numeric_limits<int>::min()),
                         names::kInvalidId};
    disk = diskNewest_.lower_bound(from);
    hot = hot_.lower_bound(from);
  }
  for (;;) {
    // A hot series still empty since the last compaction is absent.  The
    // skip stops at the range's end: after a compaction every hot series
    // is empty until its source appends again.
    while (hot != hot_.end() && inRange(hot->first) && hot->second.empty()) {
      ++hot;
    }
    const bool onDisk = disk != diskNewest_.end() && inRange(disk->first);
    const bool inHot = hot != hot_.end() && inRange(hot->first);
    if (!onDisk && !inHot) {
      return;
    }
    const std::strong_ordering order = !inHot    ? std::strong_ordering::less
                                       : !onDisk ? std::strong_ordering::greater
                                                 : disk->first <=> hot->first;
    const DiskSeries* diskSeries = order <= 0 ? &disk->second : nullptr;
    const SeriesWindows* hotSeries = order >= 0 ? &hot->second : nullptr;
    const SeriesKey& key = order <= 0 ? disk->first : hot->first;
    if (aggregator::keyMatches(key, *filter)) {
      visit(key, diskSeries, hotSeries);
    }
    if (diskSeries != nullptr) {
      ++disk;
    }
    if (hotSeries != nullptr) {
      ++hot;
    }
  }
}

void Engine::forEachNewest(const std::optional<std::string>& job,
                           std::optional<int> rank, const std::string& metric,
                           const NewestVisitor& visit) const {
  walkSeries(job, rank, metric,
             [&](const SeriesKey& key, const DiskSeries* disk,
                 const SeriesWindows* hot) {
               visit(key, NewestWindows{
                              newestWindow(disk, hot, Resolution::kFine),
                              newestWindow(disk, hot, Resolution::kCoarse)});
             });
}

void Engine::forEachKey(const std::optional<std::string>& job,
                        std::optional<int> rank, const std::string& metric,
                        const KeyVisitor& visit) const {
  walkSeries(job, rank, metric,
             [&visit](const SeriesKey& key, const DiskSeries*,
                      const SeriesWindows*) { visit(key); });
}

std::vector<SourceRecord> Engine::sources() const {
  std::vector<SourceRecord> out;
  out.reserve(sources_.size());
  for (const auto& [key, record] : sources_) {
    out.push_back(record);
  }
  return out;
}

void Engine::persistRegistry() const {
  if (options_.readOnly) {
    return;
  }
  const std::string path = dir_ + "/" + kRegistryFile;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw StateError("tsdb: cannot write " + tmp);
    }
    json::Writer w(out);
    w.beginObject();
    w.key("sources").beginArray();
    for (const auto& [key, s] : sources_) {
      w.beginObject()
          .field("job", s.job)
          .field("rank", static_cast<std::int64_t>(s.rank))
          .field("world_size", static_cast<std::int64_t>(s.worldSize))
          .field("hostname", s.hostname)
          .field("pid", static_cast<std::int64_t>(s.pid))
          .field("first_seen_s", s.firstSeenSeconds)
          .field("last_seen_s", s.lastSeenSeconds)
          .field("batches", s.batches)
          .field("records", s.records)
          .endObject();
    }
    w.endArray();
    w.endObject();
    out.flush();
    if (!out) {
      throw StateError("tsdb: short write to " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw StateError("tsdb: cannot publish " + path);
  }
}

void Engine::loadRegistry() {
  const std::string path = dir_ + "/" + kRegistryFile;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return;  // first run
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  json::Value doc;
  try {
    doc = json::parse(buffer.str());
  } catch (const ParseError&) {
    // A torn registry (crash mid-rename is impossible, but a manually
    // damaged file is not) costs only source metadata, never samples.
    recoveryCounter("zs.tsdb.recovery.registry_dropped").add();
    return;
  }
  const json::Value* list = doc.find("sources");
  if (list == nullptr || !list->isArray()) {
    return;
  }
  for (const json::Value& item : list->asArray()) {
    if (!item.isObject()) {
      continue;
    }
    SourceRecord s;
    s.job = item.stringOr("job", "");
    s.rank = static_cast<std::int32_t>(item.numberOr("rank", 0));
    s.worldSize = static_cast<std::int32_t>(item.numberOr("world_size", 0));
    s.hostname = item.stringOr("hostname", "");
    s.pid = static_cast<std::int32_t>(item.numberOr("pid", 0));
    s.firstSeenSeconds = item.numberOr("first_seen_s", 0.0);
    s.lastSeenSeconds = item.numberOr("last_seen_s", 0.0);
    s.batches = static_cast<std::uint64_t>(item.numberOr("batches", 0.0));
    s.records = static_cast<std::uint64_t>(item.numberOr("records", 0.0));
    if (!s.job.empty()) {
      sources_[{s.job, s.rank}] = s;
    }
  }
}

}  // namespace zerosum::tsdb
