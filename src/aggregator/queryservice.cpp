#include "aggregator/queryservice.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "aggregator/daemon.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/monotime.hpp"
#include "tsdb/engine.hpp"

namespace zerosum::aggregator {

namespace {

/// Shortest exact double for cache keys: 17 significant digits round-trip
/// every IEEE double, so a GET param and a POST field that parsed to the
/// same value always canonicalize to the same key.
std::string fmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string errorBody(const std::string& message) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject().field("error", message).endObject();
  out << '\n';
  return out.str();
}

void writeWindowRow(json::Writer& w, const WindowRollup& row) {
  w.beginObject()
      .field("t", row.windowStartSeconds)
      .field("window_s", row.windowSeconds)
      .field("min", row.rollup.min)
      .field("avg", row.rollup.avg())
      .field("max", row.rollup.max)
      .field("count", row.rollup.count)
      .endObject();
}

}  // namespace

const char* queryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kLive: return "live";
    case QueryClass::kBulk: return "bulk";
  }
  return "unknown";
}

QueryService::QueryService(const Aggregator& daemon,
                           QueryServiceOptions options)
    : daemon_(daemon), options_(std::move(options)) {
  auto& registry = trace::MetricsRegistry::instance();
  latLive_ = &registry.latency("zs.query.latency.live_seconds");
  latBulk_ = &registry.latency("zs.query.latency.bulk_seconds");
  ctrServed_ = &registry.counter("zs.query.served");
  ctrShed_ = &registry.counter("zs.query.shed");
  ctrCacheHits_ = &registry.counter("zs.query.cache_hits");
}

void QueryService::beginPoll(double nowSeconds) {
  (void)nowSeconds;
  std::lock_guard<std::mutex> lock(admitMutex_);
  queriesThisPoll_ = 0;
  bulkThisPoll_ = 0;
}

QueryResult QueryService::execute(const std::string& requestJson,
                                  QueryClass cls, double nowSeconds) {
  Parsed parsed = parseJson(requestJson);
  return run(parsed, cls, nowSeconds);
}

QueryResult QueryService::executeParams(
    const std::string& op, const std::map<std::string, std::string>& params,
    QueryClass cls, double nowSeconds) {
  Parsed parsed = parseParams(op, params);
  return run(parsed, cls, nowSeconds);
}

std::shared_ptr<const StoreSnapshot> QueryService::snapshot(
    double nowSeconds) {
  std::shared_ptr<const StoreSnapshot> out;
  bool refreshed = false;
  std::uint64_t keepGeneration = 0;
  {
    std::lock_guard<std::mutex> lock(snapMutex_);
    const std::uint64_t liveGeneration = daemon_.store().dataGeneration();
    const bool stale = !snap_ || snap_->generation() != liveGeneration;
    // The first call copies even inside the rate-limit window: it must
    // serve *something*.
    if (!snap_ ||
        (stale && nowSeconds - lastRefreshSeconds_ >=
                      options_.snapshotMinIntervalSeconds)) {
      snap_ = std::make_shared<const StoreSnapshot>(daemon_.store().snapshot());
      lastRefreshSeconds_ = nowSeconds;
      refreshed = true;
      keepGeneration = snap_->generation();
      snapshotRefreshes_.fetch_add(1, std::memory_order_relaxed);
    }
    out = snap_;
  }
  if (refreshed) {
    // Generation moved: every cached body keyed to an older generation
    // can never be requested again (keys embed the generation), so
    // reclaim the memory eagerly rather than waiting for LRU pressure.
    cacheSweep(keepGeneration);
  }
  return out;
}

QueryServiceCounters QueryService::counters() const {
  QueryServiceCounters out;
  out.served = served_.load(std::memory_order_relaxed);
  out.servedLive = servedLive_.load(std::memory_order_relaxed);
  out.servedBulk = servedBulk_.load(std::memory_order_relaxed);
  out.cacheHits = cacheHits_.load(std::memory_order_relaxed);
  out.cacheMisses = cacheMisses_.load(std::memory_order_relaxed);
  out.cacheEvictions = cacheEvictions_.load(std::memory_order_relaxed);
  out.shedLive = shedLive_.load(std::memory_order_relaxed);
  out.shedBulk = shedBulk_.load(std::memory_order_relaxed);
  out.snapshotRefreshes = snapshotRefreshes_.load(std::memory_order_relaxed);
  out.ladderFallbacks = ladderFallbacks_.load(std::memory_order_relaxed);
  out.badRequests = badRequests_.load(std::memory_order_relaxed);
  return out;
}

std::size_t QueryService::cacheEntries() const {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  return lru_.size();
}

std::size_t QueryService::cacheBytes() const {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  return cacheBytes_;
}

std::string QueryService::statsJson(double nowSeconds) {
  const QueryServiceCounters c = counters();
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(snapMutex_);
    if (snap_) generation = snap_->generation();
  }
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("time_seconds", nowSeconds)
      .field("pressure", pressureLevelName(daemon_.pressure()))
      .field("snapshot_generation", generation)
      .field("store_generation", daemon_.store().dataGeneration())
      .key("queries")
      .beginObject()
      .field("served", c.served)
      .field("served_live", c.servedLive)
      .field("served_bulk", c.servedBulk)
      .field("shed_live", c.shedLive)
      .field("shed_bulk", c.shedBulk)
      .field("bad_requests", c.badRequests)
      .endObject()
      .key("cache")
      .beginObject()
      .field("hits", c.cacheHits)
      .field("misses", c.cacheMisses)
      .field("evictions", c.cacheEvictions)
      .field("entries", std::uint64_t{cacheEntries()})
      .field("bytes", std::uint64_t{cacheBytes()})
      .endObject()
      .key("snapshot")
      .beginObject()
      .field("refreshes", c.snapshotRefreshes)
      .endObject()
      .endObject();
  out << '\n';
  return out.str();
}

// --- parsing / normalization -----------------------------------------------

QueryService::Parsed QueryService::parseJson(const std::string& requestJson) {
  Parsed parsed;
  try {
    const json::Value req = json::parse(requestJson);
    if (!req.isObject()) {
      parsed.error = "request must be a JSON object";
      return parsed;
    }
    parsed.op = req.stringOr("op", "");
    if (const json::Value* v = req.find("job")) {
      parsed.job = v->asString();
      parsed.hasJob = true;
    }
    if (const json::Value* v = req.find("rank")) {
      parsed.rank = rankFromNumber(v->asNumber());
      parsed.hasRank = true;
    }
    parsed.metric = req.stringOr("metric", "");
    parsed.t0 = req.numberOr("t0", 0.0);
    parsed.t1 = req.numberOr("t1", 1e18);
    const std::string res = req.stringOr("resolution", "fine");
    if (res != "fine" && res != "coarse") {
      parsed.error = "resolution must be \"fine\" or \"coarse\"";
      return parsed;
    }
    parsed.resolution = res == "coarse" ? Resolution::kCoarse
                                        : Resolution::kFine;
    parsed.windowSeconds = req.numberOr("window_s", 60.0);
  } catch (const std::exception& e) {
    parsed.error = std::string("bad request: ") + e.what();
    return parsed;
  }
  normalize(parsed);
  return parsed;
}

QueryService::Parsed QueryService::parseParams(
    const std::string& op, const std::map<std::string, std::string>& params) {
  Parsed parsed;
  parsed.op = op;
  auto number = [&](const std::string& name, double fallback,
                    bool* present = nullptr) {
    const auto it = params.find(name);
    if (it == params.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || (end != nullptr && *end != '\0')) {
      parsed.error = "parameter \"" + name + "\" is not a number";
      return fallback;
    }
    if (present != nullptr) *present = true;
    return v;
  };
  if (const auto it = params.find("job"); it != params.end()) {
    parsed.job = it->second;
    parsed.hasJob = true;
  }
  try {
    parsed.rank = rankFromNumber(number("rank", 0.0, &parsed.hasRank));
  } catch (const ParseError& e) {
    parsed.error = e.what();
  }
  if (const auto it = params.find("metric"); it != params.end()) {
    parsed.metric = it->second;
  }
  parsed.t0 = number("t0", 0.0);
  parsed.t1 = number("t1", 1e18);
  if (const auto it = params.find("resolution"); it != params.end()) {
    if (it->second != "fine" && it->second != "coarse") {
      parsed.error = "resolution must be \"fine\" or \"coarse\"";
      return parsed;
    }
    parsed.resolution = it->second == "coarse" ? Resolution::kCoarse
                                               : Resolution::kFine;
  }
  parsed.windowSeconds = number("window_s", 60.0);
  if (!parsed.error.empty()) {
    return parsed;
  }
  normalize(parsed);
  return parsed;
}

void QueryService::normalize(Parsed& parsed) {
  if (parsed.op != "series" && parsed.op != "snapshot" &&
      parsed.op != "range" && parsed.op != "window" &&
      parsed.op != "export" && parsed.op != "stats") {
    parsed.error = "unknown op \"" + parsed.op + "\"";
    return;
  }
  if ((parsed.op == "range" || parsed.op == "window") &&
      parsed.metric.empty()) {
    parsed.error = parsed.op + " query requires \"metric\"";
    return;
  }
  if (std::isnan(parsed.t0) || std::isnan(parsed.t1)) {
    parsed.error = "t0 and t1 must not be NaN";
    return;
  }
  if (parsed.op == "window" && !(parsed.windowSeconds > 0.0)) {
    parsed.error = "window_s must be > 0";
    return;
  }
  // Canonical cache key: every executable field, length-prefixed strings
  // so a metric name containing a delimiter cannot forge another field.
  // GET and POST forms of the same logical query build the same key.
  std::ostringstream key;
  key << parsed.op << "|j";
  if (parsed.hasJob) {
    key << parsed.job.size() << ':' << parsed.job;
  } else {
    key << '-';
  }
  key << "|r";
  if (parsed.hasRank) {
    key << parsed.rank;
  } else {
    key << '-';
  }
  key << "|m" << parsed.metric.size() << ':' << parsed.metric << "|t"
      << fmtDouble(parsed.t0) << ',' << fmtDouble(parsed.t1) << "|"
      << (parsed.resolution == Resolution::kCoarse ? 'c' : 'f') << "|w"
      << fmtDouble(parsed.windowSeconds);
  parsed.key = key.str();
}

// --- execution -------------------------------------------------------------

QueryResult QueryService::run(Parsed& parsed, QueryClass cls,
                              double nowSeconds) {
  if (!parsed.error.empty()) {
    badRequests_.fetch_add(1, std::memory_order_relaxed);
    return {400, errorBody(parsed.error), false, 0.0};
  }
  if (parsed.op == "export") {
    cls = QueryClass::kBulk;  // exports can never claim the live budget
  }
  const double startedAt = monotonicSeconds();
  if (parsed.op == "stats") {
    // The service's own observability: never cached, never shed — an
    // operator must be able to see the shedding counters while shedding.
    QueryResult result{200, statsJson(nowSeconds), false, 0.0};
    finish(cls, false, monotonicSeconds() - startedAt);
    return result;
  }

  const std::shared_ptr<const StoreSnapshot> snap = snapshot(nowSeconds);
  std::uint64_t generation = snap->generation();
  if (parsed.op == "export" && daemon_.engine() != nullptr) {
    // Exports read the persistence engine (deep history), so their cache
    // entries invalidate on engine appends, not store mutations.
    generation = daemon_.engine()->dataGeneration();
  }
  const std::string cacheKey =
      parsed.key + "#g" + std::to_string(generation);

  if (options_.cacheMaxEntries > 0) {
    std::string hit = cacheLookup(cacheKey);
    if (!hit.empty()) {
      // Cache hits bypass admission: they cost no snapshot or store
      // work, so serving them cannot starve ingest even under overload.
      cacheHits_.fetch_add(1, std::memory_order_relaxed);
      finish(cls, true, monotonicSeconds() - startedAt);
      return {200, std::move(hit), true, 0.0};
    }
  }

  double retryAfter = 0.0;
  if (!admit(cls, &retryAfter)) {
    if (cls == QueryClass::kBulk) {
      shedBulk_.fetch_add(1, std::memory_order_relaxed);
    } else {
      shedLive_.fetch_add(1, std::memory_order_relaxed);
    }
    ctrShed_->add();
    return {429, errorBody("overloaded: retry after " +
                           fmtDouble(retryAfter) + "s"),
            false, retryAfter};
  }
  cacheMisses_.fetch_add(1, std::memory_order_relaxed);

  std::string body;
  if (parsed.op == "series") {
    body = runSeries(*snap);
  } else if (parsed.op == "snapshot") {
    body = runSnapshotOp(*snap, parsed);
  } else if (parsed.op == "range") {
    body = runRange(*snap, parsed);
  } else if (parsed.op == "window") {
    body = runWindow(*snap, parsed);
  } else {  // export
    body = runExport(*snap, parsed);
  }
  if (options_.cacheMaxEntries > 0) {
    cacheInsert(cacheKey, generation, body);
  }
  finish(cls, false, monotonicSeconds() - startedAt);
  return {200, std::move(body), false, 0.0};
}

bool QueryService::admit(QueryClass cls, double* retryAfter) {
  const PressureLevel pressure = daemon_.pressure();
  double scale = 1.0;
  if (pressure == PressureLevel::kElevated) scale = 2.0;
  if (pressure == PressureLevel::kOverloaded) scale = 5.0;
  *retryAfter = options_.retryAfterSeconds * scale;
  std::lock_guard<std::mutex> lock(admitMutex_);
  if (queriesThisPoll_ >= options_.maxQueriesPerPoll) {
    return false;
  }
  if (cls == QueryClass::kBulk) {
    // Bulk exports get a small slice of the budget, and none at all
    // while ingest is under pressure — live dashboards and the write
    // path always win.
    if (pressure != PressureLevel::kOk ||
        bulkThisPoll_ >= options_.bulkQueriesPerPoll) {
      return false;
    }
    ++bulkThisPoll_;
  }
  ++queriesThisPoll_;
  return true;
}

void QueryService::finish(QueryClass cls, bool cacheHit,
                          double elapsedSeconds) {
  served_.fetch_add(1, std::memory_order_relaxed);
  ctrServed_->add();
  if (cacheHit) {
    ctrCacheHits_->add();
  }
  if (cls == QueryClass::kBulk) {
    servedBulk_.fetch_add(1, std::memory_order_relaxed);
    latBulk_->observe(elapsedSeconds);
  } else {
    servedLive_.fetch_add(1, std::memory_order_relaxed);
    latLive_->observe(elapsedSeconds);
  }
}

// --- op bodies -------------------------------------------------------------

std::string QueryService::runSeries(const StoreSnapshot& snap) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", snap.generation())
      .key("series")
      .beginArray();
  for (const SeriesSnapshot& series : snap.series()) {
    w.beginObject()
        .field("job", series.key.job)
        .field("rank", static_cast<std::int64_t>(series.key.rank))
        .field("metric", series.key.metric)
        .endObject();
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

std::string QueryService::runSnapshotOp(const StoreSnapshot& snap,
                                        const Parsed& parsed) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", snap.generation())
      .key("series")
      .beginArray();
  for (const SeriesSnapshot& series : snap.series()) {
    if (parsed.hasJob && series.key.job != parsed.job) continue;
    if (parsed.hasRank && series.key.rank != parsed.rank) continue;
    if (!parsed.metric.empty() && series.key.metric != parsed.metric) continue;
    w.beginObject()
        .field("job", series.key.job)
        .field("rank", static_cast<std::int64_t>(series.key.rank))
        .field("metric", series.key.metric);
    if (const auto fine = snap.latest(series.key, Resolution::kFine)) {
      w.key("fine");
      writeWindowRow(w, *fine);
    }
    if (const auto coarse = snap.latest(series.key, Resolution::kCoarse)) {
      w.key("coarse");
      writeWindowRow(w, *coarse);
    }
    w.endObject();
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

std::string QueryService::runRange(const StoreSnapshot& snap,
                                   const Parsed& parsed) {
  SeriesKey key;
  key.job = parsed.job;
  key.rank = parsed.rank;
  key.metric = parsed.metric;
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", snap.generation())
      .field("job", key.job)
      .field("rank", static_cast<std::int64_t>(key.rank))
      .field("metric", key.metric)
      .field("resolution",
             parsed.resolution == Resolution::kCoarse ? "coarse" : "fine")
      .key("windows")
      .beginArray();
  for (const WindowRollup& row :
       snap.range(key, parsed.t0, parsed.t1, parsed.resolution)) {
    writeWindowRow(w, row);
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

std::string QueryService::runWindow(const StoreSnapshot& snap,
                                    const Parsed& parsed) {
  // Anchor the trailing window at the end of the metric's newest fine
  // window in the snapshot (DESIGN.md §12 "Trailing windows").
  double anchor = 0.0;
  for (const SeriesSnapshot& series : snap.series()) {
    if (series.key.metric == parsed.metric && !series.fine.empty()) {
      anchor = std::max(
          anchor, (static_cast<double>(series.fine.back().first) + 1.0) *
                      snap.fineWindowSeconds());
    }
  }
  // Fine windows while the span fits fine retention, coarse beyond it.
  const bool fine =
      parsed.windowSeconds <= snap.fineWindowSeconds() *
                                  daemon_.store().options().fineRetentionWindows;
  const double width =
      fine ? snap.fineWindowSeconds() : snap.coarseWindowSeconds();
  const std::int64_t first =
      clampedWindowIndex(anchor - parsed.windowSeconds, width);
  const std::int64_t last = clampedWindowIndex(anchor, width);
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", snap.generation())
      .field("metric", parsed.metric)
      .field("window_s", parsed.windowSeconds)
      .field("anchor_s", anchor)
      .key("series")
      .beginArray();
  for (const SeriesSnapshot& series : snap.series()) {
    if (parsed.hasJob && series.key.job != parsed.job) continue;
    if (parsed.hasRank && series.key.rank != parsed.rank) continue;
    if (series.key.metric != parsed.metric) continue;
    const WindowBuffer& windows = fine ? series.fine : series.coarse;
    Rollup rollup;
    std::uint64_t buckets = 0;
    for (auto it = windows.lowerBound(first);
         it != windows.end() && it->first <= last; ++it) {
      rollup.combine(it->second);
      ++buckets;
    }
    ladderFallbacks_.fetch_add(1, std::memory_order_relaxed);
    w.beginObject()
        .field("job", series.key.job)
        .field("rank", static_cast<std::int64_t>(series.key.rank))
        .field("min", rollup.min)
        .field("avg", rollup.avg())
        .field("max", rollup.max)
        .field("count", rollup.count)
        .field("buckets", buckets)
        .endObject();
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

std::string QueryService::runExport(const StoreSnapshot& snap,
                                    const Parsed& parsed) {
  const tsdb::Engine* engine = daemon_.engine();
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("source", engine != nullptr ? "engine" : "snapshot")
      .field("resolution",
             parsed.resolution == Resolution::kCoarse ? "coarse" : "fine")
      .key("series")
      .beginArray();
  auto writeSeries = [&](const SeriesKey& key,
                         const std::vector<WindowRollup>& rows) {
    w.beginObject()
        .field("job", key.job)
        .field("rank", static_cast<std::int64_t>(key.rank))
        .field("metric", key.metric)
        .key("windows")
        .beginArray();
    for (const WindowRollup& row : rows) {
      writeWindowRow(w, row);
    }
    w.endArray().endObject();
  };
  if (engine != nullptr) {
    // Deep history: the engine is a strict superset of the store's
    // bounded retention (everything ingested was appended).  Each read
    // takes the engine on its own, so a threaded writer's appends wait
    // for one series at most, never for the whole export.
    std::vector<SeriesKey> keys;
    daemon_.readEngine([&] { keys = engine->seriesKeys(); });
    for (const SeriesKey& key : keys) {
      if (parsed.hasJob && key.job != parsed.job) continue;
      if (parsed.hasRank && key.rank != parsed.rank) continue;
      if (!parsed.metric.empty() && key.metric != parsed.metric) continue;
      std::vector<WindowRollup> rows;
      daemon_.readEngine([&] {
        rows = engine->range(key, parsed.t0, parsed.t1, parsed.resolution);
      });
      writeSeries(key, rows);
    }
  } else {
    for (const SeriesSnapshot& series : snap.series()) {
      if (parsed.hasJob && series.key.job != parsed.job) continue;
      if (parsed.hasRank && series.key.rank != parsed.rank) continue;
      if (!parsed.metric.empty() && series.key.metric != parsed.metric) {
        continue;
      }
      writeSeries(series.key, snap.range(series.key, parsed.t0, parsed.t1,
                                         parsed.resolution));
    }
  }
  w.endArray().endObject();
  out << '\n';
  return out.str();
}

// --- result cache ----------------------------------------------------------

std::string QueryService::cacheLookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  const auto it = cacheIndex_.find(key);
  if (it == cacheIndex_.end()) {
    return "";
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->body;
}

void QueryService::cacheInsert(const std::string& key,
                               std::uint64_t generation,
                               const std::string& body) {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  if (const auto it = cacheIndex_.find(key); it != cacheIndex_.end()) {
    // Another thread computed the same miss concurrently; keep the
    // existing entry (same generation -> bit-identical body anyway).
    return;
  }
  lru_.push_front(CacheEntry{key, generation, body});
  cacheIndex_[key] = lru_.begin();
  cacheBytes_ += key.size() + body.size();
  while (!lru_.empty() && (lru_.size() > options_.cacheMaxEntries ||
                           cacheBytes_ > options_.cacheMaxBytes)) {
    const CacheEntry& victim = lru_.back();
    cacheBytes_ -= victim.key.size() + victim.body.size();
    cacheIndex_.erase(victim.key);
    lru_.pop_back();
    cacheEvictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryService::cacheSweep(std::uint64_t keepGeneration) {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->generation != keepGeneration) {
      cacheBytes_ -= it->key.size() + it->body.size();
      cacheIndex_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace zerosum::aggregator
