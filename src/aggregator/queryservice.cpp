#include "aggregator/queryservice.hpp"

#include <cstdio>
#include <sstream>

#include "aggregator/daemon.hpp"
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
  return run(parseQuery(requestJson, kReadPlaneOps), cls, nowSeconds);
}

QueryResult QueryService::executeParams(
    const std::string& op, const std::map<std::string, std::string>& params,
    QueryClass cls, double nowSeconds) {
  return run(parseQuery(op, params, kReadPlaneOps), cls, nowSeconds);
}

std::shared_ptr<const StoreSnapshot> QueryService::snapshot(
    double nowSeconds) {
  std::shared_ptr<const StoreSnapshot> out;
  // The replaced snapshot, let go of after snapMutex_ is released.
  std::shared_ptr<const StoreSnapshot> previous;
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
      previous = std::move(snap_);
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
  std::string out;
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
  out.push_back('\n');
  return out;
}

// --- execution -------------------------------------------------------------

std::string QueryService::cacheKey(const QueryRequest& request) {
  // Length-prefixed strings, so a metric name containing a delimiter
  // cannot forge another field.
  std::ostringstream key;
  key << request.op << "|j";
  if (request.job) {
    key << request.job->size() << ':' << *request.job;
  } else {
    key << '-';
  }
  key << "|r";
  if (request.rank) {
    key << *request.rank;
  } else {
    key << '-';
  }
  key << "|m" << request.metric.size() << ':' << request.metric << "|t"
      << fmtDouble(request.t0) << ',' << fmtDouble(request.t1) << "|"
      << (request.resolution == Resolution::kCoarse ? 'c' : 'f') << "|w"
      << fmtDouble(request.windowSeconds);
  return key.str();
}

QueryResult QueryService::run(const QueryRequest& request, QueryClass cls,
                              double nowSeconds) {
  if (!request.error.empty()) {
    badRequests_.fetch_add(1, std::memory_order_relaxed);
    return {400, errorBody(request.error), false, 0.0};
  }
  if (request.op == "export") {
    cls = QueryClass::kBulk;  // exports can never claim the live budget
  }
  const double startedAt = monotonicSeconds();
  if (request.op == "stats") {
    // The service's own observability: never cached, never shed — an
    // operator must be able to see the shedding counters while shedding.
    QueryResult result{200, statsJson(nowSeconds), false, 0.0};
    finish(cls, false, monotonicSeconds() - startedAt);
    return result;
  }

  const std::shared_ptr<const StoreSnapshot> snap = snapshot(nowSeconds);
  const tsdb::Engine* engine = daemon_.engine();
  std::uint64_t generation = snap->generation();
  if (request.op == "export" && engine != nullptr) {
    // Exports read the persistence engine (deep history), so their cache
    // entries invalidate on engine appends, not store mutations.
    generation = engine->dataGeneration();
  }
  const std::string key =
      cacheKey(request) + "#g" + std::to_string(generation);

  if (options_.cacheMaxEntries > 0) {
    SharedText hit = cacheLookup(key);
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

  SharedText body;
  if (request.op == "series") {
    body = seriesBody(*snap);
  } else if (request.op == "snapshot") {
    body = snapshotBody(*snap, request);
  } else if (request.op == "range") {
    body = rangeBody(*snap, request);
  } else if (request.op == "window") {
    const StoreOptions& store = daemon_.store().options();
    std::uint64_t folded = 0;
    body = windowBody(
        *snap, request,
        store.fineWindowSeconds * store.fineRetentionWindows, folded);
    ladderFallbacks_.fetch_add(folded, std::memory_order_relaxed);
  } else {  // export: deep history from the engine, else the snapshot
    const ReadGuard guard = [this](const std::function<void()>& read) {
      daemon_.readEngine(read);
    };
    body = engine != nullptr ? exportBody(*engine, request, "engine", guard)
                             : exportBody(*snap, request, "snapshot", guard);
  }
  if (options_.cacheMaxEntries > 0) {
    cacheInsert(key, generation, body);
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

// --- result cache ----------------------------------------------------------

SharedText QueryService::cacheLookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(cacheMutex_);
  const auto it = cacheIndex_.find(key);
  if (it == cacheIndex_.end()) {
    return {};
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->body;
}

void QueryService::cacheInsert(const std::string& key,
                               std::uint64_t generation,
                               const SharedText& body) {
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
