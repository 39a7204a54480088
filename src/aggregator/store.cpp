#include "aggregator/store.hpp"

#include <cmath>
#include <functional>

#include "common/error.hpp"

namespace zerosum::aggregator {

// --- WindowBuffer ----------------------------------------------------------

WindowBuffer::const_iterator WindowBuffer::lowerBound(
    std::int64_t index) const {
  return std::lower_bound(
      begin(), end(), index,
      [](const Entry& entry, std::int64_t i) { return entry.first < i; });
}

const Rollup* WindowBuffer::find(std::int64_t index) const {
  const auto it = lowerBound(index);
  return it != end() && it->first == index ? &it->second : nullptr;
}

std::pair<Rollup*, bool> WindowBuffer::findOrInsert(std::int64_t index) {
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

std::size_t WindowBuffer::evictBefore(std::int64_t oldestKept) {
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

// --- RollupStore -----------------------------------------------------------

RollupStore::RollupStore(StoreOptions options) : options_(options) {
  if (options_.fineWindowSeconds <= 0.0) {
    throw ConfigError("RollupStore fine window must be positive");
  }
  if (options_.coarseFactor < 2) {
    throw ConfigError("RollupStore coarse factor must be >= 2");
  }
  if (options_.fineRetentionWindows < 1 ||
      options_.coarseRetentionWindows < 1) {
    throw ConfigError("RollupStore retention must be >= 1 window");
  }
  if (options_.shards < 1) {
    throw ConfigError("RollupStore needs >= 1 shard");
  }
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

RollupStore::Shard& RollupStore::shardOf(const SeriesKey& key) {
  const std::size_t h = std::hash<std::string>{}(key.metric) ^
                        (std::hash<int>{}(key.rank) << 1U) ^
                        (std::hash<std::string>{}(key.job) << 2U);
  return *shards_[h % shards_.size()];
}

const RollupStore::Shard& RollupStore::shardOf(const SeriesKey& key) const {
  return const_cast<RollupStore*>(this)->shardOf(key);
}

double RollupStore::windowSeconds(Resolution resolution) const {
  return resolution == Resolution::kFine
             ? options_.fineWindowSeconds
             : options_.fineWindowSeconds * options_.coarseFactor;
}

void RollupStore::mergeBounded(WindowBuffer& windows, std::int64_t index,
                               double value, int retention,
                               std::uint64_t& evicted) {
  const std::int64_t newest =
      windows.empty() ? index : std::max(index, windows.back().first);
  const std::int64_t oldestKept = newest - retention + 1;
  if (index < oldestKept) {
    return;  // beyond the retention horizon: too old to matter
  }
  windows.findOrInsert(index).first->merge(value);
  // Evict windows that fell off the horizon (at most a handful per
  // ingest; amortized O(1)).
  evicted += windows.evictBefore(oldestKept);
}

void RollupStore::markDirtyLocked(Series& series, Resolution resolution,
                                  std::int64_t index, Shard& shard) {
  if (!trackDirty_.load(std::memory_order_relaxed)) {
    return;
  }
  auto& dirty = resolution == Resolution::kFine ? series.dirtyFine
                                                : series.dirtyCoarse;
  if (dirty.insert(index).second) {
    ++shard.dirty;
  }
}

std::optional<std::int64_t> RollupStore::fineIndexOf(double timeSeconds,
                                                     double value) const {
  if (!std::isfinite(timeSeconds) || !std::isfinite(value) ||
      timeSeconds < 0.0) {
    return std::nullopt;
  }
  return ingestWindowIndex(timeSeconds, options_.fineWindowSeconds);
}

void RollupStore::mergeLocked(Series& series, std::int64_t fineIndex,
                              double value, Shard& shard) {
  dataGeneration_.fetch_add(1, std::memory_order_release);
  mergeBounded(series.fine, fineIndex, value, options_.fineRetentionWindows,
               shard.evicted);
  markDirtyLocked(series, Resolution::kFine, fineIndex, shard);
  // fineIndex >= 0 (ingest refuses t < 0), so division is the floor.
  const std::int64_t coarseIndex = fineIndex / options_.coarseFactor;
  mergeBounded(series.coarse, coarseIndex, value,
               options_.coarseRetentionWindows, shard.evicted);
  markDirtyLocked(series, Resolution::kCoarse, coarseIndex, shard);
  ++shard.ingested;
}

void RollupStore::ingest(const SeriesKey& key, double timeSeconds,
                         double value) {
  const auto fineIndex = fineIndexOf(timeSeconds, value);
  if (!fineIndex) {
    return;  // hostile or corrupt input: ignore, never throw on ingest
  }
  Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  mergeLocked(shard.series[key], *fineIndex, value, shard);
}

void RollupStore::ingest(const SeriesKey& key, SeriesRef& ref,
                         double timeSeconds, double value) {
  const auto fineIndex = fineIndexOf(timeSeconds, value);
  if (!fineIndex) {
    return;  // hostile or corrupt input: ignore, never throw on ingest
  }
  if (ref.shard == nullptr) {
    ref.shard = &shardOf(key);  // a key's shard never changes
  }
  std::lock_guard<std::mutex> lock(ref.shard->mutex);
  // Revalidate under the shard lock: evictSource bumps the generation
  // before erasing, so a stale ref re-resolves rather than following a
  // freed node.
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (ref.series == nullptr || ref.generation != gen) {
    ref.series = &ref.shard->series[key];
    ref.generation = gen;
  }
  mergeLocked(*ref.series, *fineIndex, value, *ref.shard);
}

std::size_t RollupStore::evictSource(const std::string& job, int rank) {
  std::size_t dropped = 0;
  // Invalidate outstanding SeriesRefs before any node is freed.
  generation_.fetch_add(1, std::memory_order_release);
  dataGeneration_.fetch_add(1, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->series.begin(); it != shard->series.end();) {
      if (it->first.job == job && it->first.rank == rank) {
        shard->evicted += it->second.fine.size() + it->second.coarse.size();
        shard->dirty -=
            it->second.dirtyFine.size() + it->second.dirtyCoarse.size();
        it = shard->series.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

bool RollupStore::ingestWindow(const SeriesKey& key, Resolution resolution,
                               std::int64_t windowIndex,
                               const Rollup& rollup) {
  if (windowIndex < 0 || rollup.count == 0 || !std::isfinite(rollup.min) ||
      !std::isfinite(rollup.max) || !std::isfinite(rollup.sum)) {
    return false;  // hostile or corrupt input: ignore, never throw
  }
  Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  Series& series = shard.series[key];
  auto& windows =
      resolution == Resolution::kFine ? series.fine : series.coarse;
  const int retention = resolution == Resolution::kFine
                            ? options_.fineRetentionWindows
                            : options_.coarseRetentionWindows;
  // windowIndex >= 0 and retention >= 1, so this cannot overflow.
  const std::int64_t oldestKept =
      (windows.empty() ? windowIndex
                       : std::max(windowIndex, windows.back().first)) -
      retention + 1;
  if (windowIndex < oldestKept) {
    return false;  // beyond the retention horizon: too old to matter
  }
  auto [stored, inserted] = windows.findOrInsert(windowIndex);
  if (!inserted && rollup.count <= stored->count) {
    return false;  // not newer: the stored window stands
  }
  // Cumulative snapshots are monotone in count: higher count = newer.
  // Replacing (never combining) keeps retransmits idempotent.
  *stored = rollup;
  markDirtyLocked(series, resolution, windowIndex, shard);
  ++shard.ingested;
  dataGeneration_.fetch_add(1, std::memory_order_release);
  shard.evicted += windows.evictBefore(oldestKept);
  return true;
}

void RollupStore::merge(const RollupStore& other) {
  for (const auto& otherShard : other.shards_) {
    // Snapshot the other shard's windows under its lock, then release it
    // before taking this store's locks (no lock ordering between stores).
    std::vector<std::pair<SeriesKey, Series>> copied;
    {
      std::lock_guard<std::mutex> lock(otherShard->mutex);
      copied.reserve(otherShard->series.size());
      for (const auto& [key, series] : otherShard->series) {
        copied.emplace_back(key, series);
      }
    }
    for (auto& [key, incoming] : copied) {
      Shard& shard = shardOf(key);
      std::lock_guard<std::mutex> lock(shard.mutex);
      Series& mine = shard.series[key];
      const std::pair<WindowBuffer*, const WindowBuffer*> planes[] = {
          {&mine.fine, &incoming.fine}, {&mine.coarse, &incoming.coarse}};
      const int retentions[] = {options_.fineRetentionWindows,
                                options_.coarseRetentionWindows};
      for (int p = 0; p < 2; ++p) {
        WindowBuffer& target = *planes[p].first;
        for (const auto& [index, rollup] : *planes[p].second) {
          target.findOrInsert(index).first->combine(rollup);
        }
        if (!target.empty()) {
          shard.evicted +=
              target.evictBefore(target.back().first - retentions[p] + 1);
        }
      }
    }
  }
  dataGeneration_.fetch_add(1, std::memory_order_release);
}

StoreSnapshot RollupStore::snapshot() const {
  StoreSnapshot out;
  out.fineWindowSeconds_ = options_.fineWindowSeconds;
  out.coarseWindowSeconds_ =
      options_.fineWindowSeconds * options_.coarseFactor;
  // All shard locks, in index order (writers only ever hold one shard
  // lock, so this cannot deadlock against ingest): the copy and the
  // generation reading describe exactly the same instant.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex);
    total += shard->series.size();
  }
  out.generation_ = dataGeneration_.load(std::memory_order_acquire);
  out.series_.reserve(total);
  for (const auto& shard : shards_) {
    for (const auto& [key, series] : shard->series) {
      out.series_.push_back({key, series.fine, series.coarse});
    }
  }
  locks.clear();
  std::sort(out.series_.begin(), out.series_.end(),
            [](const SeriesSnapshot& a, const SeriesSnapshot& b) {
              return a.key < b.key;
            });
  return out;
}

const SeriesSnapshot* StoreSnapshot::find(const SeriesKey& key) const {
  const auto it = std::lower_bound(
      series_.begin(), series_.end(), key,
      [](const SeriesSnapshot& s, const SeriesKey& k) { return s.key < k; });
  if (it == series_.end() || !(it->key == key)) {
    return nullptr;
  }
  return &*it;
}

std::optional<WindowRollup> StoreSnapshot::latest(
    const SeriesKey& key, Resolution resolution) const {
  const SeriesSnapshot* series = find(key);
  if (series == nullptr) {
    return std::nullopt;
  }
  const auto& windows =
      resolution == Resolution::kFine ? series->fine : series->coarse;
  if (windows.empty()) {
    return std::nullopt;
  }
  const double width = resolution == Resolution::kFine
                           ? fineWindowSeconds_
                           : coarseWindowSeconds_;
  WindowRollup out;
  out.windowStartSeconds = static_cast<double>(windows.back().first) * width;
  out.windowSeconds = width;
  out.rollup = windows.back().second;
  return out;
}

std::vector<WindowRollup> StoreSnapshot::range(const SeriesKey& key, double t0,
                                               double t1,
                                               Resolution resolution) const {
  std::vector<WindowRollup> out;
  if (std::isnan(t0) || std::isnan(t1) || t1 < t0) {
    return out;
  }
  const SeriesSnapshot* series = find(key);
  if (series == nullptr) {
    return out;
  }
  const auto& windows =
      resolution == Resolution::kFine ? series->fine : series->coarse;
  const double width = resolution == Resolution::kFine
                           ? fineWindowSeconds_
                           : coarseWindowSeconds_;
  const std::int64_t first = clampedWindowIndex(t0, width);
  const std::int64_t last = clampedWindowIndex(t1, width);
  for (auto w = windows.lowerBound(first);
       w != windows.end() && w->first <= last; ++w) {
    WindowRollup row;
    row.windowStartSeconds = static_cast<double>(w->first) * width;
    row.windowSeconds = width;
    row.rollup = w->second;
    out.push_back(row);
  }
  return out;
}

void RollupStore::enableDirtyTracking() {
  trackDirty_.store(true, std::memory_order_relaxed);
}

std::size_t RollupStore::drainDirty(std::vector<DirtyWindow>& out,
                                    std::size_t maxWindows) {
  std::size_t appended = 0;
  for (auto& shard : shards_) {
    if (appended >= maxWindows) {
      break;
    }
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (shard->dirty == 0) {
      continue;
    }
    for (auto& [key, series] : shard->series) {
      const std::pair<Resolution, std::set<std::int64_t>*> planes[] = {
          {Resolution::kFine, &series.dirtyFine},
          {Resolution::kCoarse, &series.dirtyCoarse}};
      for (const auto& [resolution, dirty] : planes) {
        const auto& windows =
            resolution == Resolution::kFine ? series.fine : series.coarse;
        while (!dirty->empty() && appended < maxWindows) {
          const std::int64_t index = *dirty->begin();
          dirty->erase(dirty->begin());
          --shard->dirty;
          const Rollup* rollup = windows.find(index);
          if (rollup == nullptr) {
            continue;  // evicted since it was marked
          }
          DirtyWindow w;
          w.key = key;
          w.resolution = resolution;
          w.windowIndex = index;
          w.rollup = *rollup;
          out.push_back(std::move(w));
          ++appended;
        }
        if (appended >= maxWindows) {
          break;
        }
      }
      if (appended >= maxWindows) {
        break;
      }
    }
  }
  return appended;
}

void RollupStore::markAllDirty() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& [key, series] : shard->series) {
      for (const auto& [index, rollup] : series.fine) {
        if (series.dirtyFine.insert(index).second) {
          ++shard->dirty;
        }
      }
      for (const auto& [index, rollup] : series.coarse) {
        if (series.dirtyCoarse.insert(index).second) {
          ++shard->dirty;
        }
      }
    }
  }
}

std::size_t RollupStore::dirtyCount() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->dirty;
  }
  return total;
}

std::optional<WindowRollup> RollupStore::latest(const SeriesKey& key,
                                                Resolution resolution) const {
  const Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.series.find(key);
  if (it == shard.series.end()) {
    return std::nullopt;
  }
  const auto& windows =
      resolution == Resolution::kFine ? it->second.fine : it->second.coarse;
  if (windows.empty()) {
    return std::nullopt;
  }
  const double width = windowSeconds(resolution);
  WindowRollup out;
  out.windowStartSeconds = static_cast<double>(windows.back().first) * width;
  out.windowSeconds = width;
  out.rollup = windows.back().second;
  return out;
}

std::vector<WindowRollup> RollupStore::range(const SeriesKey& key, double t0,
                                             double t1,
                                             Resolution resolution) const {
  std::vector<WindowRollup> out;
  if (std::isnan(t0) || std::isnan(t1) || t1 < t0) {
    return out;
  }
  const Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.series.find(key);
  if (it == shard.series.end()) {
    return out;
  }
  const auto& windows =
      resolution == Resolution::kFine ? it->second.fine : it->second.coarse;
  const double width = windowSeconds(resolution);
  const std::int64_t first = clampedWindowIndex(t0, width);
  const std::int64_t last = clampedWindowIndex(t1, width);
  for (auto w = windows.lowerBound(first);
       w != windows.end() && w->first <= last; ++w) {
    WindowRollup row;
    row.windowStartSeconds = static_cast<double>(w->first) * width;
    row.windowSeconds = width;
    row.rollup = w->second;
    out.push_back(row);
  }
  return out;
}

std::vector<SeriesKey> RollupStore::keys() const {
  std::vector<SeriesKey> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, series] : shard->series) {
      out.push_back(key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SeriesKey> RollupStore::keysOf(const std::string& job,
                                           int rank) const {
  std::vector<SeriesKey> out;
  for (const auto& key : keys()) {
    if (key.job == job && key.rank == rank) {
      out.push_back(key);
    }
  }
  return out;
}

std::size_t RollupStore::seriesCount() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    count += shard->series.size();
  }
  return count;
}

std::uint64_t RollupStore::samplesIngested() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->ingested;
  }
  return total;
}

std::uint64_t RollupStore::windowsEvicted() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->evicted;
  }
  return total;
}

}  // namespace zerosum::aggregator
