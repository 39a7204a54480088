#include "aggregator/store.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"

namespace zerosum::aggregator {

namespace {

/// Calls `emit` on every element of the sorted `runs` ([first, last)
/// pairs) in one ascending order of `keyOf`: a k-way merge over a heap of
/// the runs' heads.  No key may appear in two runs.
template <typename It, typename KeyOf, typename Emit>
void mergeRuns(std::vector<std::pair<It, It>>& runs, KeyOf keyOf,
               Emit emit) {
  std::erase_if(runs, [](const auto& run) { return run.first == run.second; });
  const auto later = [&keyOf](const auto& a, const auto& b) {
    return keyOf(*b.first) < keyOf(*a.first);
  };
  std::make_heap(runs.begin(), runs.end(), later);
  while (!runs.empty()) {
    std::pop_heap(runs.begin(), runs.end(), later);
    auto& run = runs.back();
    emit(*run.first);
    if (++run.first == run.second) {
      runs.pop_back();
    } else {
      std::push_heap(runs.begin(), runs.end(), later);
    }
  }
}

}  // namespace

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

int RollupStore::retention(Resolution resolution) const {
  return resolution == Resolution::kFine ? options_.fineRetentionWindows
                                         : options_.coarseRetentionWindows;
}

void RollupStore::evictLocked(Plane& plane, std::int64_t oldestKept,
                              Shard& shard) {
  shard.evicted += plane.windows.evictBefore(oldestKept);
  auto& marks = plane.dirty;
  if (!marks.empty() && marks.front() < oldestKept) {
    const auto end = std::lower_bound(marks.begin(), marks.end(), oldestKept);
    shard.dirty -= static_cast<std::size_t>(end - marks.begin());
    marks.erase(marks.begin(), end);
  }
}

void RollupStore::markDirtyLocked(SeriesNode& node, Resolution resolution,
                                  std::int64_t index, Shard& shard) {
  if (!trackDirty_.load(std::memory_order_relaxed)) {
    return;
  }
  Series& series = node.second;
  auto& marks = series[resolution].dirty;
  const auto pos = std::lower_bound(marks.begin(), marks.end(), index);
  if (pos != marks.end() && *pos == index) {
    return;
  }
  marks.insert(pos, index);  // in-order ingest appends
  ++shard.dirty;
  if (!series.listed) {
    series.listed = true;
    shard.dirtySeries.push_back(&node);
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

void RollupStore::mergeLocked(SeriesNode& node, std::int64_t fineIndex,
                              double value, Shard& shard) {
  dataGeneration_.fetch_add(1, std::memory_order_release);
  // fineIndex >= 0 (ingest refuses t < 0), so division is the floor.
  const std::int64_t indices[] = {fineIndex, fineIndex / options_.coarseFactor};
  for (const Resolution resolution : {Resolution::kFine, Resolution::kCoarse}) {
    const std::int64_t index = indices[static_cast<int>(resolution)];
    Plane& plane = node.second[resolution];
    const std::int64_t oldestKept =
        plane.windows.oldestKept(index, retention(resolution));
    if (index < oldestKept) {
      continue;  // beyond the retention horizon: too old to matter
    }
    plane.windows.findOrInsert(index).first->merge(value);
    markDirtyLocked(node, resolution, index, shard);
    // At most a handful of windows fall off per ingest; amortized O(1).
    evictLocked(plane, oldestKept, shard);
  }
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
  mergeLocked(*shard.series.try_emplace(key).first, *fineIndex, value, shard);
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
    ref.series = &*ref.shard->series.try_emplace(key).first;
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
        for (const Plane& plane : it->second.planes) {
          shard->evicted += plane.windows.size();
          shard->dirty -= plane.dirty.size();
        }
        if (it->second.listed) {
          std::erase(shard->dirtySeries, &*it);
        }
        it = shard->series.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

std::size_t RollupStore::ingestWindows(
    const SeriesKey& key, std::span<const WindowSnapshot> windows) {
  Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  SeriesNode* node = nullptr;  // looked up at the first admissible window
  std::size_t applied = 0;
  for (const WindowSnapshot& window : windows) {
    const Rollup& rollup = window.rollup;
    if (window.windowIndex < 0 || rollup.count == 0 ||
        !std::isfinite(rollup.min) || !std::isfinite(rollup.max) ||
        !std::isfinite(rollup.sum)) {
      continue;  // hostile or corrupt input: ignore, never throw
    }
    if (node == nullptr) {
      node = &*shard.series.try_emplace(key).first;
    }
    Plane& plane = node->second[window.resolution];
    const std::int64_t oldestKept = plane.windows.oldestKept(
        window.windowIndex, retention(window.resolution));
    if (window.windowIndex < oldestKept) {
      continue;  // beyond the retention horizon: too old to matter
    }
    auto [stored, inserted] = plane.windows.findOrInsert(window.windowIndex);
    if (!inserted && rollup.count <= stored->count) {
      continue;  // not newer: the stored window stands
    }
    // Cumulative snapshots are monotone in count: higher count = newer.
    // Replacing (never combining) keeps retransmits idempotent.
    *stored = rollup;
    markDirtyLocked(*node, window.resolution, window.windowIndex, shard);
    ++shard.ingested;
    dataGeneration_.fetch_add(1, std::memory_order_release);
    evictLocked(plane, oldestKept, shard);
    ++applied;
  }
  return applied;
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
      for (const Resolution resolution :
           {Resolution::kFine, Resolution::kCoarse}) {
        Plane& target = mine[resolution];
        for (const auto& [index, rollup] : incoming[resolution].windows) {
          target.windows.findOrInsert(index).first->combine(rollup);
        }
        if (!target.windows.empty()) {
          evictLocked(target,
                      target.windows.back().first - retention(resolution) + 1,
                      shard);
        }
      }
    }
  }
  dataGeneration_.fetch_add(1, std::memory_order_release);
}

StoreSnapshot RollupStore::emptySnapshot() const {
  StoreSnapshot out;
  out.fineWindowSeconds_ = options_.fineWindowSeconds;
  out.coarseWindowSeconds_ = windowSeconds(Resolution::kCoarse);
  return out;
}

StoreSnapshot RollupStore::snapshot() const {
  StoreSnapshot out = emptySnapshot();
  // All shard locks, in index order (writers only ever hold one shard
  // lock, so this cannot deadlock against ingest): the copy and the
  // generation reading describe exactly the same instant.
  using Run = std::pair<std::map<SeriesKey, Series>::const_iterator,
                        std::map<SeriesKey, Series>::const_iterator>;
  std::vector<std::unique_lock<std::mutex>> locks;
  std::vector<Run> runs;
  locks.reserve(shards_.size());
  runs.reserve(shards_.size());
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex);
    total += shard->series.size();
    runs.emplace_back(shard->series.begin(), shard->series.end());
  }
  out.generation_ = dataGeneration_.load(std::memory_order_acquire);
  // The merge fixes the order; the copy then touches each series' key
  // and window chunks, which lie all over the heap, so it requests them
  // a few series ahead instead of waiting on each miss in turn.
  std::vector<const SeriesNode*> order;
  order.reserve(total);
  mergeRuns(
      runs, [](const SeriesNode& node) -> const SeriesKey& { return node.first; },
      [&order](const SeriesNode& node) { order.push_back(&node); });
  constexpr std::size_t kAhead = 8;
  out.series_.reserve(total);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i + 2 * kAhead < order.size()) {
      __builtin_prefetch(&order[i + 2 * kAhead]->second);
    }
    if (i + kAhead < order.size()) {
      const SeriesNode& ahead = *order[i + kAhead];
      __builtin_prefetch(ahead.first.metric.data());
      ahead.second[Resolution::kFine].windows.prefetch();
      ahead.second[Resolution::kCoarse].windows.prefetch();
    }
    const SeriesNode& node = *order[i];
    out.series_.push_back({node.first, node.second[Resolution::kFine].windows,
                           node.second[Resolution::kCoarse].windows});
  }
  return out;
}

StoreSnapshot RollupStore::snapshotNewest(
    const std::optional<std::string>& job, std::optional<int> rank,
    const std::string& metric) const {
  const auto newest = [](const WindowBuffer& windows) {
    return windows.slice(windows.end() - (windows.empty() ? 0 : 1),
                         windows.end());
  };
  StoreSnapshot out = emptySnapshot();
  out.generation_ = dataGeneration_.load(std::memory_order_acquire);
  // One shard lock at a time: ingest into a shard waits for that shard's
  // share of the walk only.  Each shard's matches are one sorted run.
  std::vector<SeriesSnapshot> found;
  std::vector<std::size_t> runEnds;
  runEnds.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, series] : shard->series) {
      if (keyMatches(key, job, rank, metric)) {
        found.push_back({key, newest(series[Resolution::kFine].windows),
                         newest(series[Resolution::kCoarse].windows)});
      }
    }
    runEnds.push_back(found.size());
  }
  using Run = std::pair<std::vector<SeriesSnapshot>::iterator,
                        std::vector<SeriesSnapshot>::iterator>;
  std::vector<Run> runs;
  runs.reserve(runEnds.size());
  auto first = found.begin();
  for (const std::size_t end : runEnds) {
    const auto last = found.begin() + static_cast<std::ptrdiff_t>(end);
    runs.emplace_back(first, last);
    first = last;
  }
  out.series_.reserve(found.size());
  mergeRuns(
      runs, [](const SeriesSnapshot& series) -> const SeriesKey& {
        return series.key;
      },
      [&out](SeriesSnapshot& series) {
        out.series_.push_back(std::move(series));
      });
  return out;
}

StoreSnapshot RollupStore::snapshotRange(const SeriesKey& key, double t0,
                                         double t1,
                                         Resolution resolution) const {
  StoreSnapshot out = emptySnapshot();
  // One series: its shard's lock covers every mutation of it.
  const Shard& shard = shardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  out.generation_ = dataGeneration_.load(std::memory_order_acquire);
  if (const auto it = shard.series.find(key); it != shard.series.end()) {
    const auto [first, last] = it->second[resolution].windows.between(
        t0, t1, windowSeconds(resolution));
    SeriesSnapshot& series = out.series_.emplace_back();
    series.key = key;
    (resolution == Resolution::kFine ? series.fine : series.coarse) =
        it->second[resolution].windows.slice(first, last);
  }
  return out;
}

const SeriesSnapshot* StoreSnapshot::find(const SeriesKey& key) const {
  const auto it =
      std::ranges::lower_bound(series_, key, {}, &SeriesSnapshot::key);
  if (it == series_.end() || !(it->key == key)) {
    return nullptr;
  }
  return &*it;
}

std::optional<WindowRollup> StoreSnapshot::newest(const WindowBuffer& windows,
                                                  double width) {
  if (windows.empty()) {
    return std::nullopt;
  }
  WindowRollup out;
  out.windowStartSeconds = static_cast<double>(windows.back().first) * width;
  out.windowSeconds = width;
  out.rollup = windows.back().second;
  return out;
}

std::optional<WindowRollup> StoreSnapshot::latest(
    const SeriesKey& key, Resolution resolution) const {
  const SeriesSnapshot* series = find(key);
  if (series == nullptr) {
    return std::nullopt;
  }
  return newest(resolution == Resolution::kFine ? series->fine : series->coarse,
                windowSeconds(resolution));
}

void StoreSnapshot::forEachKey(const std::optional<std::string>& job,
                               std::optional<int> rank,
                               const std::string& metric,
                               const KeyVisitor& visit) const {
  for (const SeriesSnapshot& series : series_) {
    if (keyMatches(series.key, job, rank, metric)) {
      visit(series.key);
    }
  }
}

void StoreSnapshot::forEachNewest(const std::optional<std::string>& job,
                                  std::optional<int> rank,
                                  const std::string& metric,
                                  const NewestVisitor& visit) const {
  for (const SeriesSnapshot& series : series_) {
    if (keyMatches(series.key, job, rank, metric)) {
      visit(series.key, {newest(series.fine, fineWindowSeconds_),
                         newest(series.coarse, coarseWindowSeconds_)});
    }
  }
}

std::vector<WindowRollup> StoreSnapshot::range(const SeriesKey& key, double t0,
                                               double t1,
                                               Resolution resolution) const {
  std::vector<WindowRollup> out;
  if (const SeriesSnapshot* series = find(key)) {
    const double width = windowSeconds(resolution);
    const auto [first, last] =
        (resolution == Resolution::kFine ? series->fine : series->coarse)
            .between(t0, t1, width);
    for (auto w = first; w != last; ++w) {
      out.push_back({static_cast<double>(w->first) * width, width, w->second});
    }
  }
  return out;
}

void RollupStore::enableDirtyTracking() {
  trackDirty_.store(true, std::memory_order_relaxed);
}

std::size_t RollupStore::drainDirty(SeriesBlocks& out,
                                    std::size_t maxWindows) {
  out.size_ = 0;
  out.windows_.clear();
  std::size_t drained = 0;
  for (auto& shard : shards_) {
    if (drained >= maxWindows) {
      break;
    }
    std::lock_guard<std::mutex> lock(shard->mutex);
    // Series fully drained from the front of the list; a series the
    // budget splits stays listed first.
    std::size_t done = 0;
    for (; done < shard->dirtySeries.size() && drained < maxWindows; ++done) {
      auto& [key, series] = *shard->dirtySeries[done];
      if (out.size_ == out.blocks_.size()) {
        out.blocks_.emplace_back();
      }
      SeriesBlocks::Block& block = out.blocks_[out.size_++];
      block.key = key;  // a spare block's strings keep their capacity
      block.first = out.windows_.size();
      block.count = 0;
      for (const Resolution resolution :
           {Resolution::kFine, Resolution::kCoarse}) {
        Plane& plane = series[resolution];
        auto& marks = plane.dirty;
        if (marks.empty()) {
          continue;
        }
        // Marks and windows are both index-sorted: walk them together,
        // from the first marked window.  Marks usually cover the newest
        // windows, so look there before searching.
        auto w = plane.windows.end() -
                 static_cast<std::ptrdiff_t>(
                     std::min(marks.size(), plane.windows.size()));
        if (w == plane.windows.end() || w->first != marks.front()) {
          w = plane.windows.lowerBound(marks.front());
        }
        std::size_t taken = 0;
        for (; taken < marks.size() && drained < maxWindows; ++taken) {
          while (w != plane.windows.end() && w->first < marks[taken]) {
            ++w;
          }
          if (w == plane.windows.end() || w->first != marks[taken]) {
            continue;  // evicted since it was marked
          }
          out.windows_.push_back({resolution, w->first, w->second});
          ++block.count;
          ++drained;
        }
        marks.erase(marks.begin(),
                    marks.begin() + static_cast<std::ptrdiff_t>(taken));
        shard->dirty -= taken;
      }
      if (block.count == 0) {
        --out.size_;  // every mark it had was evicted
      }
      if (!series.planes[0].dirty.empty() || !series.planes[1].dirty.empty()) {
        break;  // split by the budget
      }
      series.listed = false;
    }
    shard->dirtySeries.erase(
        shard->dirtySeries.begin(),
        shard->dirtySeries.begin() + static_cast<std::ptrdiff_t>(done));
  }
  return drained;
}

void RollupStore::markAllDirty() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& node : shard->series) {
      Series& series = node.second;
      for (Plane& plane : series.planes) {
        shard->dirty += plane.windows.size() - plane.dirty.size();
        plane.dirty.clear();
        for (const auto& [index, rollup] : plane.windows) {
          plane.dirty.push_back(index);
        }
      }
      if (!series.listed) {
        series.listed = true;
        shard->dirtySeries.push_back(&node);
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
  return StoreSnapshot::newest(it->second[resolution].windows,
                               windowSeconds(resolution));
}

std::vector<WindowRollup> RollupStore::range(const SeriesKey& key, double t0,
                                             double t1,
                                             Resolution resolution) const {
  return snapshotRange(key, t0, t1, resolution).range(key, t0, t1, resolution);
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
  // A source's keys are one contiguous run of each shard's sorted map:
  // copy only that run, then sort only the matches.
  const SeriesKey from{job, rank, ""};
  std::vector<SeriesKey> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->series.lower_bound(from);
         it != shard->series.end() && it->first.job == job &&
         it->first.rank == rank;
         ++it) {
      out.push_back(it->first);
    }
  }
  std::sort(out.begin(), out.end());
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
