#include "aggregator/store.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace zerosum::aggregator {

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
}

RollupStore::SeriesMap::const_iterator RollupStore::firstOf(
    names::Id job, std::optional<int> rank) const {
  // No stored metric sorts before kInvalidId: it reads "", and wins the
  // id tie-break against intern("").
  return series_.lower_bound(
      {job, rank.value_or(std::numeric_limits<int>::min()), names::kInvalidId});
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

void RollupStore::evictLocked(Plane& plane, std::int64_t oldestKept) {
  evicted_ += plane.windows.evictBefore(oldestKept);
  auto& marks = plane.dirty;
  if (!marks.empty() && marks.front() < oldestKept) {
    const auto end = std::lower_bound(marks.begin(), marks.end(), oldestKept);
    dirty_ -= static_cast<std::size_t>(end - marks.begin());
    marks.erase(marks.begin(), end);
  }
}

void RollupStore::markDirtyLocked(SeriesNode& node, Resolution resolution,
                                  std::int64_t index) {
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
  ++dirty_;
  if (!series.listed) {
    series.listed = true;
    dirtySeries_.push_back(&node);
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
                              double value) {
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
    markDirtyLocked(node, resolution, index);
    // At most a handful of windows fall off per ingest; amortized O(1).
    evictLocked(plane, oldestKept);
  }
  ++ingested_;
}

void RollupStore::ingest(const SeriesKey& key, double timeSeconds,
                         double value) {
  const auto fineIndex = fineIndexOf(timeSeconds, value);
  if (!fineIndex) {
    return;  // hostile or corrupt input: ignore, never throw on ingest
  }
  std::lock_guard<std::mutex> lock(mutex_);
  mergeLocked(*series_.try_emplace(key).first, *fineIndex, value);
}

void RollupStore::ingest(const SeriesKey& key, SeriesRef& ref,
                         double timeSeconds, double value) {
  const auto fineIndex = fineIndexOf(timeSeconds, value);
  if (!fineIndex) {
    return;  // hostile or corrupt input: ignore, never throw on ingest
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Revalidate under the lock: evictSource bumps the generation before
  // erasing, so a stale ref re-resolves rather than following a freed
  // node.
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (ref.series == nullptr || ref.generation != gen) {
    ref.series = &*series_.try_emplace(key).first;
    ref.generation = gen;
  }
  mergeLocked(*ref.series, *fineIndex, value);
}

std::size_t RollupStore::evictSource(std::string_view job, int rank) {
  // Invalidate outstanding SeriesRefs before any node is freed.
  generation_.fetch_add(1, std::memory_order_release);
  dataGeneration_.fetch_add(1, std::memory_order_release);
  const names::Id jobId = names::find(job);
  if (jobId == names::kInvalidId) {
    return 0;  // never interned: no series can be of this job
  }
  const auto ofSource = [jobId, rank](const SeriesKey& key) {
    return key.job == jobId && key.rank == rank;
  };
  std::lock_guard<std::mutex> lock(mutex_);
  const auto first = firstOf(jobId, rank);
  auto last = first;
  bool listed = false;
  std::size_t dropped = 0;
  for (; last != series_.end() && ofSource(last->first); ++last, ++dropped) {
    for (const Plane& plane : last->second.planes) {
      evicted_ += plane.windows.size();
      dirty_ -= plane.dirty.size();
    }
    listed = listed || last->second.listed;
  }
  if (listed) {
    std::erase_if(dirtySeries_, [&ofSource](const SeriesNode* node) {
      return ofSource(node->first);
    });
  }
  series_.erase(first, last);
  return dropped;
}

std::size_t RollupStore::ingestWindows(
    const SeriesKey& key, std::span<const WindowSnapshot> windows) {
  std::lock_guard<std::mutex> lock(mutex_);
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
      node = &*series_.try_emplace(key).first;
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
    markDirtyLocked(*node, window.resolution, window.windowIndex);
    ++ingested_;
    dataGeneration_.fetch_add(1, std::memory_order_release);
    evictLocked(plane, oldestKept);
    ++applied;
  }
  return applied;
}

StoreSnapshot RollupStore::emptySnapshot() const {
  StoreSnapshot out;
  out.fineWindowSeconds_ = options_.fineWindowSeconds;
  out.coarseWindowSeconds_ = windowSeconds(Resolution::kCoarse);
  return out;
}

StoreSnapshot RollupStore::snapshot() const {
  StoreSnapshot out = emptySnapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  // Read under the lock the copy is taken under: the copy and the
  // generation describe exactly the same instant.
  out.generation_ = dataGeneration_.load(std::memory_order_acquire);
  // The copy touches each series' window chunks, which lie all over the
  // heap, so it requests them a few series ahead instead of waiting on
  // each miss in turn.
  std::vector<const SeriesNode*> order;
  order.reserve(series_.size());
  for (const SeriesNode& node : series_) {
    order.push_back(&node);
  }
  constexpr std::size_t kAhead = 8;
  out.series_.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i + 2 * kAhead < order.size()) {
      __builtin_prefetch(&order[i + 2 * kAhead]->second);
    }
    if (i + kAhead < order.size()) {
      const SeriesNode& ahead = *order[i + kAhead];
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
  const auto filter = seriesFilter(job, rank, metric);
  std::lock_guard<std::mutex> lock(mutex_);
  out.generation_ = dataGeneration_.load(std::memory_order_acquire);
  if (!filter) {
    return out;
  }
  // A given job (and rank) selects one run of keys; without a job every
  // series is compared.
  for (auto it = filter->job ? firstOf(*filter->job, rank) : series_.begin();
       it != series_.end(); ++it) {
    const auto& [key, series] = *it;
    if (filter->job &&
        (key.job != *filter->job || (rank && key.rank != *rank))) {
      break;  // past the run
    }
    if (keyMatches(key, *filter)) {
      out.series_.push_back({key, newest(series[Resolution::kFine].windows),
                             newest(series[Resolution::kCoarse].windows)});
    }
  }
  return out;
}

StoreSnapshot RollupStore::snapshotRange(const SeriesKey& key, double t0,
                                         double t1,
                                         Resolution resolution) const {
  StoreSnapshot out = emptySnapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  out.generation_ = dataGeneration_.load(std::memory_order_acquire);
  if (const auto it = series_.find(key); it != series_.end()) {
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
  forEachMatch(job, rank, metric,
               [&visit](const SeriesSnapshot& series) { visit(series.key); });
}

void StoreSnapshot::forEachNewest(const std::optional<std::string>& job,
                                  std::optional<int> rank,
                                  const std::string& metric,
                                  const NewestVisitor& visit) const {
  forEachMatch(job, rank, metric, [&](const SeriesSnapshot& series) {
    visit(series.key, {newest(series.fine, fineWindowSeconds_),
                       newest(series.coarse, coarseWindowSeconds_)});
  });
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
  out.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  // Series fully drained from the front of the list; a series the budget
  // splits stays listed first.
  std::size_t done = 0;
  for (; done < dirtySeries_.size() && out.windowCount() < maxWindows;
       ++done) {
    auto& [key, series] = *dirtySeries_[done];
    out.open() = key;
    for (const Resolution resolution :
         {Resolution::kFine, Resolution::kCoarse}) {
      Plane& plane = series[resolution];
      auto& marks = plane.dirty;
      if (marks.empty()) {
        continue;
      }
      // Marks and windows are both index-sorted: walk them together, from
      // the first marked window.  Marks usually cover the newest windows,
      // so look there before searching.
      auto w = plane.windows.end() -
               static_cast<std::ptrdiff_t>(
                   std::min(marks.size(), plane.windows.size()));
      if (w == plane.windows.end() || w->first != marks.front()) {
        w = plane.windows.lowerBound(marks.front());
      }
      std::size_t taken = 0;
      for (; taken < marks.size() && out.windowCount() < maxWindows;
           ++taken) {
        while (w != plane.windows.end() && w->first < marks[taken]) {
          ++w;
        }
        if (w == plane.windows.end() || w->first != marks[taken]) {
          continue;  // evicted since it was marked
        }
        out.push({resolution, w->first, w->second});
      }
      marks.erase(marks.begin(),
                  marks.begin() + static_cast<std::ptrdiff_t>(taken));
      dirty_ -= taken;
    }
    out.dropEmpty();  // every mark it had was evicted
    if (!series.planes[0].dirty.empty() || !series.planes[1].dirty.empty()) {
      break;  // split by the budget
    }
    series.listed = false;
  }
  dirtySeries_.erase(dirtySeries_.begin(),
                     dirtySeries_.begin() + static_cast<std::ptrdiff_t>(done));
  return out.windowCount();
}

void RollupStore::markAllDirty() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& node : series_) {
    Series& series = node.second;
    for (Plane& plane : series.planes) {
      dirty_ += plane.windows.size() - plane.dirty.size();
      plane.dirty.clear();
      for (const auto& [index, rollup] : plane.windows) {
        plane.dirty.push_back(index);
      }
    }
    if (!series.listed) {
      series.listed = true;
      dirtySeries_.push_back(&node);
    }
  }
}

std::size_t RollupStore::dirtyCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dirty_;
}

std::optional<WindowRollup> RollupStore::latest(const SeriesKey& key,
                                                Resolution resolution) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(key);
  if (it == series_.end()) {
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
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(series_.size());
  for (const auto& [key, series] : series_) {
    out.push_back(key);
  }
  return out;
}

std::vector<SeriesKey> RollupStore::keysOf(std::string_view job,
                                           int rank) const {
  std::vector<SeriesKey> out;
  const names::Id jobId = names::find(job);
  if (jobId == names::kInvalidId) {
    return out;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = firstOf(jobId, rank); it != series_.end() &&
                                       it->first.job == jobId &&
                                       it->first.rank == rank;
       ++it) {
    out.push_back(it->first);
  }
  return out;
}

std::size_t RollupStore::seriesCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

std::uint64_t RollupStore::samplesIngested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ingested_;
}

std::uint64_t RollupStore::windowsEvicted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

}  // namespace zerosum::aggregator
