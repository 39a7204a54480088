// Query/dashboard service under mixed read/write load: per-query latency
// through the full HTTP plane, sustained QPS, cache effectiveness, and
// the load-shedding contract (DESIGN.md §12).
//
// One adaptive client feeds stamped batches into a daemon over the pipe
// transport while a keep-alive HTTP reader drives GET /api/query through
// the mounted endpoint set — window/snapshot/series dashboard queries
// every period plus a periodic bulk export.  A final overload phase
// fires far more cache-busting queries per poll than the admission
// budget allows, which must shed the excess with 429 while still
// serving within-budget queries (shed, never stalled) and while the
// write path keeps ingesting losslessly.
//
// The gated invariants (scripts/bench_gate.py):
//   * records_dropped == 0  — serving a heavy read load must not cost
//     the lossless in-memory wire a single ingest record.
//   * shed_not_stalled      — under read overload, some queries answer
//     200 and the excess answers 429 with Retry-After; nothing hangs.
// plus live_p99_us / queries_per_second as catastrophic-only ratios and
// cache_hit_ratio as a bounded (deterministic workload) quantity.
//
// Emits BENCH_query.json (json::Writer); --out <path> overrides.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/http.hpp"
#include "aggregator/queryservice.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "trace/metrics.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

constexpr int kPeriods = 300;
constexpr int kOverloadPeriods = 30;  // trailing periods with excess reads
constexpr int kMetrics = 16;
constexpr int kSamplesPerMetric = 8;
constexpr int kLiveQueriesPerPeriod = 8;
constexpr int kOverloadQueries = 200;  // > maxQueriesPerPoll (128)

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto at = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(static_cast<double>(sorted.size()) * p));
  return sorted[at];
}

struct Pipeline {
  Pipeline() : daemon(wireHub.makeServer()), http(httpHub.makeServer()) {
    Hello hello;
    hello.job = "bench";
    hello.rank = 0;
    hello.worldSize = 1;
    hello.hostname = "node0000";
    hello.pid = 1000;
    client = std::make_unique<Client>(wireHub.makeClientTransport(), hello);
    query = std::make_unique<QueryService>(daemon);
    mountDaemonEndpoints(http, daemon, [this] { return t; },
                         {{"job", "bench"}, {"role", "daemon"}},
                         query.get());
    reader = httpHub.makeClientTransport();
    reader->connect();
  }

  /// One full keep-alive GET exchange; returns the HTTP status (0 when
  /// the response never completed) and leaves the body in `lastBody`.
  int get(const std::string& target) {
    reader->send("GET " + target + " HTTP/1.1\r\n\r\n");
    std::string response;
    for (int i = 0; i < 64; ++i) {
      http.poll();
      reader->receive(response);
      const auto headerEnd = response.find("\r\n\r\n");
      if (headerEnd == std::string::npos) continue;
      const auto lenAt = response.find("Content-Length: ");
      if (lenAt == std::string::npos) break;
      const std::size_t length =
          std::stoul(response.substr(lenAt + 16, headerEnd - lenAt));
      if (response.size() >= headerEnd + 4 + length) {
        lastBody = response.substr(headerEnd + 4, length);
        return std::atoi(response.c_str() + 9);  // after "HTTP/1.1 "
      }
    }
    return 0;
  }

  PipeHub wireHub;
  PipeHub httpHub;
  Aggregator daemon;
  HttpServer http;
  std::unique_ptr<QueryService> query;
  std::unique_ptr<Transport> reader;
  std::unique_ptr<Client> client;
  std::string lastBody;
  double t = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = "BENCH_query.json";
  for (int i = 1; i < argc - 1; ++i) {
    if (std::string(argv[i]) == "--out") {
      jsonPath = argv[i + 1];
    }
  }

  std::cout << "=== query service under mixed read/write load ===\n\n";
  trace::MetricsRegistry::instance().reset();

  std::vector<names::Id> ids;
  std::vector<std::string> names;
  for (int m = 0; m < kMetrics; ++m) {
    names.push_back("bench.metric." + std::to_string(m));
    ids.push_back(names::intern(names.back()));
  }
  std::vector<IdRecord> batch;
  batch.reserve(kMetrics * kSamplesPerMetric);

  Pipeline pipe;
  std::vector<double> liveUs;
  liveUs.reserve(static_cast<std::size_t>(kPeriods * kLiveQueriesPerPeriod));
  std::uint64_t queriesIssued = 0;
  std::uint64_t overload200 = 0;
  std::uint64_t overload429 = 0;
  std::uint64_t overloadIncomplete = 0;

  const auto start = std::chrono::steady_clock::now();
  for (int period = 0; period < kPeriods; ++period, pipe.t += 1.0) {
    batch.clear();
    for (int m = 0; m < kMetrics; ++m) {
      for (int s = 0; s < kSamplesPerMetric; ++s) {
        batch.push_back({pipe.t, ids[static_cast<std::size_t>(m)],
                         static_cast<double>(period % 100 + s)});
      }
    }
    pipe.client->enqueueIds(batch, pipe.t);
    pipe.daemon.poll(pipe.t);
    pipe.client->pump(pipe.t);

    pipe.query->beginPoll(pipe.t);
    // The dashboard working set: a handful of distinct queries repeated
    // every refresh — exactly the shape the result cache exists for.
    for (int q = 0; q < kLiveQueriesPerPeriod; ++q) {
      const std::string& metric =
          names[static_cast<std::size_t>(q % 4)];
      std::string target;
      switch (q % 3) {
        case 0:
          target = "/api/query?op=window&metric=" + metric + "&window_s=60";
          break;
        case 1:
          target = "/api/query?op=snapshot&metric=" + metric;
          break;
        default:
          target = "/api/query?op=series";
          break;
      }
      const auto qStart = std::chrono::steady_clock::now();
      const int status = pipe.get(target);
      liveUs.push_back(secondsSince(qStart) * 1e6);
      ++queriesIssued;
      if (status != 200) {
        std::cerr << "ERROR: live query answered " << status << " ("
                  << target << ")\n";
        return 1;
      }
    }
    if (period % 10 == 9) {
      // Bulk export rides the small bulk budget slice.
      const int status = pipe.get("/api/query?op=export&metric=" + names[0]);
      ++queriesIssued;
      if (status != 200 && status != 429) {
        std::cerr << "ERROR: export answered " << status << "\n";
        return 1;
      }
    }
    if (period >= kPeriods - kOverloadPeriods) {
      // Read overload: far more cache-busting queries than one poll's
      // budget.  The contract is shed-not-stalled — every request gets
      // a prompt 200 or 429, never a hang.
      for (int q = 0; q < kOverloadQueries; ++q) {
        const std::string target =
            "/api/query?op=range&metric=" + names[0] +
            "&job=bench&rank=0&t0=" + std::to_string(period * 1000 + q);
        const int status = pipe.get(target);
        ++queriesIssued;
        if (status == 200) {
          ++overload200;
        } else if (status == 429) {
          ++overload429;
        } else {
          ++overloadIncomplete;
        }
      }
    }
  }
  const double elapsed = secondsSince(start);

  const auto clientCounters = pipe.client->counters();
  const auto daemonCounters = pipe.daemon.counters();
  const QueryServiceCounters qc = pipe.query->counters();

  std::sort(liveUs.begin(), liveUs.end());
  const double p50Us = percentile(liveUs, 0.50);
  const double p99Us = percentile(liveUs, 0.99);
  const double qps =
      elapsed > 0.0 ? static_cast<double>(queriesIssued) / elapsed : 0.0;
  const double hitRatio =
      qc.cacheHits + qc.cacheMisses > 0
          ? static_cast<double>(qc.cacheHits) /
                static_cast<double>(qc.cacheHits + qc.cacheMisses)
          : 0.0;
  const bool shedNotStalled =
      overload200 > 0 && overload429 > 0 && overloadIncomplete == 0;

  std::cout << "  ingested:   " << daemonCounters.recordsIngested
            << " records (dropped " << clientCounters.recordsDropped << ")\n"
            << "  queries:    " << queriesIssued << " (" << qps
            << " q/s wall)\n"
            << "  live lat:   p50 " << p50Us << " us, p99 " << p99Us
            << " us\n"
            << "  cache:      " << qc.cacheHits << " hits / "
            << qc.cacheMisses << " misses (ratio " << hitRatio << ", "
            << qc.cacheEvictions << " evictions)\n"
            << "  snapshot:   " << qc.snapshotRefreshes << " refreshes\n"
            << "  overload:   " << overload200 << " served, " << overload429
            << " shed, " << overloadIncomplete << " incomplete\n"
            << "  shed total: live " << qc.shedLive << ", bulk "
            << qc.shedBulk << "\n";

  bool ok = true;
  if (clientCounters.recordsDropped != 0) {
    std::cerr << "ERROR: the read load cost the wire "
              << clientCounters.recordsDropped << " ingest records\n";
    ok = false;
  }
  if (!shedNotStalled) {
    std::cerr << "ERROR: overload contract broken (served=" << overload200
              << " shed=" << overload429 << " incomplete="
              << overloadIncomplete << ")\n";
    ok = false;
  }

  std::ofstream jsonOut(jsonPath);
  if (jsonOut) {
    json::Writer w(jsonOut);
    w.beginObject();
    w.field("benchmark", "query_service");
    w.field("periods", static_cast<std::uint64_t>(kPeriods));
    w.field("queries_issued", queriesIssued);
    w.field("queries_per_second", qps);
    w.field("live_p50_us", p50Us);
    w.field("live_p99_us", p99Us);
    w.field("cache_hits", qc.cacheHits);
    w.field("cache_misses", qc.cacheMisses);
    w.field("cache_hit_ratio", hitRatio);
    w.field("snapshot_refreshes", qc.snapshotRefreshes);
    w.field("records_ingested", daemonCounters.recordsIngested);
    w.field("records_dropped", clientCounters.recordsDropped);
    w.field("overload_served", overload200);
    w.field("overload_shed", overload429);
    w.field("shed_not_stalled", shedNotStalled);
    w.endObject();
    jsonOut << '\n';
    std::cout << "\nwrote " << jsonPath << '\n';
  } else {
    std::cerr << "could not write " << jsonPath << '\n';
    return 1;
  }
  return ok ? 0 : 1;
}
