// QueryService: the read plane of the aggregation daemon, behind GET
// /api/query and POST /query: many dashboard readers served while jobs
// are writing (DESIGN.md §12).  Requests are parsed by the one query
// parser and answered by the op bodies of query.hpp, whose op table
// lists the ops served here (column H).  Around them the service adds
// three mechanisms:
//
//   1. Snapshot-isolated reads.  Readers never touch the live
//      RollupStore: the service keeps one shared immutable StoreSnapshot
//      (shared_ptr, copy-on-read) and refreshes it only when the store's
//      dataGeneration() has advanced AND a minimum interval has elapsed.
//      Every query runs against a frozen generation — no torn reads, no
//      reader holding the store lock against ingest, and the cost of a
//      refresh is amortized over every reader in the window.
//
//   2. A bounded query-result cache keyed by (normalized query, data
//      generation).  GET and POST forms of the same logical query
//      normalize to one canonical key, so they share entries; a key
//      embeds the generation it was computed at, so an ingest-driven
//      generation bump invalidates implicitly (stale keys can never be
//      asked for again) and a sweep on refresh reclaims the memory.
//      Within one generation the cache returns bit-identical bodies; a
//      hit shares the cached body with its response, so the bytes are
//      copied once, into the HTTP response, outside the cache lock.
//      `window` keeps no state of its own either: it folds each series'
//      trailing fine windows from the snapshot, or its coarse windows
//      once the span outgrows fine retention, so its answer, like every
//      other op's, is a function of the generation alone.
//
//   3. Load shedding with priority classes.  Queries are kLive
//      (dashboard) or kBulk (export); each poll grants a bounded budget
//      (live gets the whole budget, bulk a small slice that closes
//      entirely while the daemon's PressureLevel is elevated), and a
//      query past its budget is shed with 429 + Retry-After scaled by
//      pressure instead of queueing — reads can never starve ingest.
//      Cache hits are always served: they cost no snapshot work.
//
// Thread safety: execute() may be called from any thread.  The live
// store underneath is the RollupStore, behind its one lock (safe),
// pressure() reads atomic queue depths and is advisory, engine reads go
// through Aggregator::readEngine, and the service's own state is split
// across small mutexes (snapshot, cache, admission) that are never
// nested.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "aggregator/query.hpp"
#include "aggregator/store.hpp"
#include "common/shared_text.hpp"
#include "trace/metrics.hpp"

namespace zerosum::aggregator {

class Aggregator;

/// Priority class of one query.  Live beats bulk under load.
enum class QueryClass : std::uint8_t { kLive, kBulk };

[[nodiscard]] const char* queryClassName(QueryClass cls);

struct QueryServiceOptions {
  /// Result-cache bounds; 0 entries disables caching entirely.
  std::size_t cacheMaxEntries = 256;
  std::size_t cacheMaxBytes = 4 * 1024 * 1024;
  /// Snapshot refresh rate limit: even under continuous ingest the
  /// store is snapshotted at most this often.
  double snapshotMinIntervalSeconds = 0.25;
  /// Admission budgets, reset by beginPoll(): total queries per poll,
  /// and the slice of that total bulk-class queries may use.
  std::size_t maxQueriesPerPoll = 128;
  std::size_t bulkQueriesPerPoll = 8;
  /// Base Retry-After for shed queries; scaled x2 / x5 as the daemon's
  /// pressure ladder rises.
  double retryAfterSeconds = 1.0;
};

struct QueryServiceCounters {
  std::uint64_t served = 0;       ///< 200s, cache hits included
  std::uint64_t servedLive = 0;
  std::uint64_t servedBulk = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
  std::uint64_t shedLive = 0;     ///< 429s per class
  std::uint64_t shedBulk = 0;
  std::uint64_t snapshotRefreshes = 0;
  /// Series folded by `window` answers.  The name is left from the
  /// removed downsample ladder, whose fallback folded the series it did
  /// not hold (every series at a federation root, so the count there is
  /// unchanged); it stays because zsbench reads it under this name.
  std::uint64_t ladderFallbacks = 0;
  std::uint64_t badRequests = 0;  ///< 400s
};

/// Outcome of one execute().
struct QueryResult {
  int status = 200;  ///< 200, 400, or 429
  /// JSON document (trailing newline included); a cache hit shares the
  /// cached bytes.
  SharedText body;
  bool cacheHit = false;
  double retryAfterSeconds = 0.0;  ///< > 0 only when status == 429
};

class QueryService {
 public:
  /// `daemon` must outlive the service.
  explicit QueryService(const Aggregator& daemon,
                        QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a fresh admission budget.  The owner's event loop calls this
  /// once per iteration, before the HTTP poll that delivers queries.
  void beginPoll(double nowSeconds);

  /// Executes one JSON query (the dialect of query.hpp, read-plane ops).
  /// Malformed input yields 400, shed load 429.
  [[nodiscard]] QueryResult execute(const std::string& requestJson,
                                    QueryClass cls, double nowSeconds);

  /// Same queries in GET form: `op` from the path, parameters from the
  /// decoded query string.  Normalizes to the identical cache key as the
  /// POST form.
  [[nodiscard]] QueryResult executeParams(
      const std::string& op, const std::map<std::string, std::string>& params,
      QueryClass cls, double nowSeconds);

  /// The shared read snapshot, refreshing it first when the store moved
  /// and the rate limit allows.  Never null after the first call.
  [[nodiscard]] std::shared_ptr<const StoreSnapshot> snapshot(
      double nowSeconds);

  [[nodiscard]] QueryServiceCounters counters() const;
  [[nodiscard]] std::size_t cacheEntries() const;
  [[nodiscard]] std::size_t cacheBytes() const;
  [[nodiscard]] const QueryServiceOptions& options() const {
    return options_;
  }

  /// The {"op":"stats"} body — the service's own observability surface.
  [[nodiscard]] std::string statsJson(double nowSeconds);

 private:
  /// The canonical cache key of a valid request (sans generation): every
  /// executable field, so GET and POST forms of one query share it.
  [[nodiscard]] static std::string cacheKey(const QueryRequest& request);

  [[nodiscard]] QueryResult run(const QueryRequest& request, QueryClass cls,
                                double nowSeconds);
  /// Admission control: true to execute now, false -> shed (429).
  bool admit(QueryClass cls, double* retryAfter);
  void finish(QueryClass cls, bool cacheHit, double elapsedSeconds);

  /// The cached body of `key`, shared; empty on a miss.
  [[nodiscard]] SharedText cacheLookup(const std::string& key);
  void cacheInsert(const std::string& key, std::uint64_t generation,
                   const SharedText& body);
  void cacheSweep(std::uint64_t keepGeneration);

  const Aggregator& daemon_;
  QueryServiceOptions options_;

  // --- shared snapshot (snapMutex_) ----------------------------------------
  mutable std::mutex snapMutex_;
  std::shared_ptr<const StoreSnapshot> snap_;
  double lastRefreshSeconds_ = -1e18;

  // --- result cache (cacheMutex_) ------------------------------------------
  struct CacheEntry {
    std::string key;
    std::uint64_t generation = 0;
    SharedText body;
  };
  mutable std::mutex cacheMutex_;
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::map<std::string, std::list<CacheEntry>::iterator> cacheIndex_;
  std::size_t cacheBytes_ = 0;

  // --- admission (admitMutex_) ---------------------------------------------
  mutable std::mutex admitMutex_;
  std::size_t queriesThisPoll_ = 0;
  std::size_t bulkThisPoll_ = 0;

  // --- counters (atomic; read via counters()) ------------------------------
  std::atomic<std::uint64_t> served_{0}, servedLive_{0}, servedBulk_{0};
  std::atomic<std::uint64_t> cacheHits_{0}, cacheMisses_{0},
      cacheEvictions_{0};
  std::atomic<std::uint64_t> shedLive_{0}, shedBulk_{0};
  std::atomic<std::uint64_t> snapshotRefreshes_{0};
  std::atomic<std::uint64_t> ladderFallbacks_{0};
  std::atomic<std::uint64_t> badRequests_{0};

  /// Per-class service latency, exported as zs.query.latency.* in
  /// /metrics.  Per-instance handles: tests reset the registry.
  trace::LatencyHistogram* latLive_ = nullptr;
  trace::LatencyHistogram* latBulk_ = nullptr;
  trace::Counter* ctrServed_ = nullptr;
  trace::Counter* ctrShed_ = nullptr;
  trace::Counter* ctrCacheHits_ = nullptr;
};

}  // namespace zerosum::aggregator
