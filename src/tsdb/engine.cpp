#include "tsdb/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ranges>
#include <sstream>
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
      addDiskKeys(*reader);
      segments_.push_back({seq, std::move(reader)});
    } catch (const ParseError&) {
      ++counters_.segmentsRejected;
      recoveryCounter("zs.tsdb.recovery.segments_dropped").add();
    }
    nextSegmentSeq_ = std::max(nextSegmentSeq_, seq + 1);
  }
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
  loadRegistry();
}

void Engine::replayWal(std::uint64_t seq, bool repairTail) {
  const std::string path = walPath(seq);
  WalReadResult result = readWal(path);
  for (const WalBatch& batch : result.batches) {
    mergeSamples(batch.job, batch.rank, batch.samples);
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
  wal_ = std::make_unique<WalWriter>(walPath(activeWalSeq_), options_.fsync,
                                     options_.fsyncBatchBytes);
}

std::size_t Engine::mergeSamples(const std::string& job, std::int32_t rank,
                                 const std::vector<Sample>& samples) {
  const names::Id jobId = names::intern(job);
  std::size_t merged = 0;
  for (const Sample& sample : samples) {
    if (!std::isfinite(sample.timeSeconds) || !std::isfinite(sample.value) ||
        sample.timeSeconds < 0.0) {
      continue;  // RollupStore::ingest parity: ignore hostile input
    }
    const auto fineIndex = aggregator::ingestWindowIndex(
        sample.timeSeconds, options_.fineWindowSeconds);
    if (!fineIndex) {
      continue;  // ... and a time too large to index (1e300)
    }
    // The id-keyed cache resolves straight to the hot series node; the
    // string-keyed hot_ map is only touched the first time a series is
    // seen (and again after compaction clears it).
    SeriesWindows*& cached =
        hotCache_[{jobId, rank, names::intern(sample.metric)}];
    if (cached == nullptr) {
      cached = &hot_[SeriesKey{job, rank, sample.metric}];
    }
    SeriesWindows& windows = *cached;
    windows.fine[*fineIndex].merge(sample.value);
    // fineIndex >= 0 (t >= 0), so integer division is the floor.
    windows.coarse[*fineIndex / options_.coarseFactor].merge(sample.value);
    ++counters_.samplesAppended;
    ++merged;
  }
  return merged;
}

void Engine::append(const std::string& job, std::int32_t rank,
                    const std::vector<Sample>& samples) {
  if (options_.readOnly) {
    throw StateError("tsdb: append on read-only engine");
  }
  if (samples.empty()) {
    return;
  }
  wal_->append(job, rank, samples);  // durable first ...
  const std::size_t merged = mergeSamples(job, rank, samples);  // visible
  ++counters_.batchesAppended;
  if (merged > 0) {
    dataGeneration_.fetch_add(1, std::memory_order_release);
  }
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
  if (hot_.empty()) {
    return;
  }
  // Crash-consistent rotation protocol, in order:
  //   1. seal the active WAL (sync + close);
  //   2. write the segment covering every WAL up to and including it —
  //      the atomic rename is the commit point;
  //   3. delete the covered WAL files (a crash before this is repaired
  //      at recovery via walSeqCovered);
  //   4. start a fresh WAL and drop the hot windows it replaces.
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
  addDiskKeys(*segments_.back().reader);
  for (std::uint64_t seq = 1; seq <= covered; ++seq) {
    std::error_code ec;
    fs::remove(walPath(seq), ec);
  }
  activeWalSeq_ = covered + 1;
  openWal();
  hot_.clear();
  hotCache_.clear();  // cached pointers died with hot_
  enforceRetention();
  persistRegistry();
}

void Engine::seal() {
  if (options_.readOnly) {
    return;
  }
  if (!hot_.empty()) {
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
  bool dropped = false;
  while (segments_.size() > 1 && overBudget()) {
    const std::string victim = segments_.front().reader->path();
    segments_.erase(segments_.begin());
    std::error_code ec;
    fs::remove(victim, ec);
    ++counters_.segmentsDropped;
    dropped = true;
  }
  if (dropped) {
    // A key may have lived only in a dropped segment.
    diskKeys_.clear();
    for (const LiveSegment& segment : segments_) {
      addDiskKeys(*segment.reader);
    }
  }
}

void Engine::addDiskKeys(const SegmentReader& reader) {
  // Both sides are sorted (the footer by key, then resolution), so one
  // walk finds the keys diskKeys_ lacks; after the first compaction of a
  // steady fleet there are none, and nothing is copied.
  std::vector<SeriesKey> added;
  auto known = diskKeys_.cbegin();
  for (const SegmentEntry& entry : reader.entries()) {
    while (known != diskKeys_.cend() && *known < entry.key) {
      ++known;
    }
    if ((known == diskKeys_.cend() || *known != entry.key) &&
        (added.empty() || added.back() != entry.key)) {
      added.push_back(entry.key);
    }
  }
  if (added.empty()) {
    return;
  }
  const auto oldSize = static_cast<std::ptrdiff_t>(diskKeys_.size());
  diskKeys_.insert(diskKeys_.end(), std::make_move_iterator(added.begin()),
                   std::make_move_iterator(added.end()));
  std::inplace_merge(diskKeys_.begin(), diskKeys_.begin() + oldSize,
                     diskKeys_.end());
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
  // mergeRollup is associative, so accumulating in index order
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
        mergeRollup(merged[index], rollup);
      }
    }
  }
  const auto hotIt = hot_.find(key);
  if (hotIt != hot_.end()) {
    const auto& windows = resolution == Resolution::kFine
                              ? hotIt->second.fine
                              : hotIt->second.coarse;
    for (auto w = windows.lower_bound(first);
         w != windows.end() && w->first <= last; ++w) {
      mergeRollup(merged[w->first], w->second);
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

std::optional<WindowRollup> Engine::latest(const SeriesKey& key,
                                           Resolution resolution) const {
  std::optional<std::int64_t> newest;
  const auto hotIt = hot_.find(key);
  if (hotIt != hot_.end()) {
    const auto& windows = resolution == Resolution::kFine
                              ? hotIt->second.fine
                              : hotIt->second.coarse;
    if (!windows.empty()) {
      newest = windows.rbegin()->first;
    }
  }
  for (const LiveSegment& segment : segments_) {
    for (const SegmentEntry& entry : segment.reader->find(key, resolution)) {
      if (!newest || entry.maxWindow > *newest) {
        newest = entry.maxWindow;
      }
    }
  }
  if (!newest) {
    return std::nullopt;
  }
  const double width = windowSeconds(resolution);
  const double start = static_cast<double>(*newest) * width;
  auto rows = range(key, start, start + width / 2.0, resolution);
  if (rows.empty()) {
    return std::nullopt;
  }
  return rows.back();
}

std::vector<SeriesKey> Engine::seriesKeys() const {
  std::vector<SeriesKey> keys;
  keys.reserve(diskKeys_.size() + hot_.size());
  std::ranges::set_union(diskKeys_, std::views::keys(hot_),
                         std::back_inserter(keys));
  return keys;
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
