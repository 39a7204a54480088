// The query/dashboard service (DESIGN.md §12): snapshot-isolated reads
// under concurrent ingest, the (query, generation)-keyed result cache
// (bit-identical bodies within a generation, implicit invalidation on
// ingest, GET/POST key sharing), `window` folds of the snapshot's fine or
// coarse windows, and load shedding with priority classes (live beats
// bulk, bulk closes under pressure, 429 + Retry-After, stats never shed).
#include "aggregator/queryservice.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/http.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "aggregator/writer.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "trace/metrics.hpp"
#include "tsdb/engine.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

/// QueryService resolves metric handles in its constructor, so every
/// test builds its fixtures after the registry reset.
class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::MetricsRegistry::instance().reset(); }
  void TearDown() override { trace::MetricsRegistry::instance().reset(); }
};

Frame helloFrame(int rank) {
  Frame frame;
  frame.kind = FrameKind::kHello;
  frame.hello.job = "j1";
  frame.hello.rank = rank;
  frame.hello.worldSize = 2;
  frame.hello.hostname = "node0000";
  frame.hello.pid = 100 + rank;
  return frame;
}

Frame batchFrame(double t, std::uint64_t seq, double value = 50.0) {
  Frame frame;
  frame.kind = FrameKind::kBatch;
  frame.timeSeconds = t;
  frame.batchSeq = seq;
  frame.enqueueSeconds = t - 0.010;
  frame.encodeSeconds = t - 0.005;
  frame.records.push_back({t, names::intern("hwt.0.user_pct"), value});
  return frame;
}

/// A daemon fed over the pipe hub, with the query service reading it the
/// way zerosum-aggd's does.
struct QueryPlane {
  explicit QueryPlane(QueryServiceOptions queryOptions = {},
                      DaemonOptions daemonOptions = {})
      : daemon(hub.makeServer(), {}, daemonOptions),
        service(daemon, queryOptions),
        source(hub.makeClientTransport()) {
    EXPECT_TRUE(source->connect());
    EXPECT_TRUE(source->send(encodeFrame(helloFrame(0), names)));
  }

  /// One record at `t`, ingested and visible in the store.
  void ingest(double t, std::uint64_t seq, double value = 50.0) {
    ASSERT_TRUE(source->send(encodeFrame(batchFrame(t, seq, value), names)));
    daemon.poll(t);
  }

  PipeHub hub;
  Aggregator daemon;
  QueryService service;
  std::unique_ptr<Transport> source;
  NameRefs names;  ///< `source`'s name table
};

}  // namespace

TEST_F(QueryServiceTest, SnapshotIsFrozenWhileIngestAdvances) {
  QueryPlane plane;
  plane.ingest(1.0, 1);

  const auto snap = plane.service.snapshot(1.0);
  ASSERT_NE(snap, nullptr);
  const std::uint64_t frozen = snap->generation();
  ASSERT_EQ(snap->seriesCount(), 1u);

  // The live store moves on; the handed-out snapshot must not.
  plane.ingest(2.0, 2, 90.0);
  EXPECT_GT(plane.daemon.store().dataGeneration(), frozen);
  EXPECT_EQ(snap->generation(), frozen);
  const SeriesKey key{"j1", 0, "hwt.0.user_pct"};
  const auto latest = snap->latest(key);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->rollup.max, 50.0);  // the t=2 record is not in it

  // A refresh past the rate limit picks up the new generation.
  const auto fresh = plane.service.snapshot(2.0);
  EXPECT_EQ(fresh->generation(), plane.daemon.store().dataGeneration());
  EXPECT_EQ(fresh->latest(key)->rollup.max, 90.0);
}

TEST_F(QueryServiceTest, SnapshotRefreshIsRateLimited) {
  QueryServiceOptions options;
  options.snapshotMinIntervalSeconds = 10.0;
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  const auto first = plane.service.snapshot(1.0);
  plane.ingest(2.0, 2);
  // Stale, but inside the refresh interval: the shared copy is reused.
  const auto second = plane.service.snapshot(2.0);
  EXPECT_EQ(first.get(), second.get());
  // Past the interval: refreshed.
  const auto third = plane.service.snapshot(11.5);
  EXPECT_NE(second.get(), third.get());
  EXPECT_EQ(plane.service.counters().snapshotRefreshes, 2u);
}

TEST_F(QueryServiceTest, ConcurrentReadersSeeConsistentGenerations) {
  QueryServiceOptions options;
  options.snapshotMinIntervalSeconds = 0.0;
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  // Readers hammer execute() from four threads while the main thread
  // keeps ingesting.  Every response must be a complete, well-formed
  // document whose generation is consistent (monotone per thread) —
  // a torn read would surface as a parse error or a bogus generation.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&plane, &stop, &failures] {
      std::uint64_t lastGeneration = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryResult result = plane.service.execute(
            "{\"op\":\"snapshot\"}", QueryClass::kLive, 1.0);
        if (result.status != 200) continue;  // shed is a legal outcome
        try {
          const json::Value doc = json::parse(result.body);
          const auto generation =
              static_cast<std::uint64_t>(doc.numberOr("generation", 0));
          if (generation < lastGeneration) {
            failures.fetch_add(1);
          }
          lastGeneration = generation;
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::uint64_t seq = 2; seq <= 200; ++seq) {
    plane.service.beginPoll(static_cast<double>(seq));
    plane.ingest(static_cast<double>(seq), seq,
                 static_cast<double>(seq % 100));
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(QueryServiceTest, CacheServesBitIdenticalBodiesWithinAGeneration) {
  QueryPlane plane;
  plane.ingest(1.0, 1);

  const QueryResult first = plane.service.execute(
      "{\"op\":\"snapshot\",\"metric\":\"hwt.0.user_pct\"}",
      QueryClass::kLive, 1.0);
  ASSERT_EQ(first.status, 200);
  EXPECT_FALSE(first.cacheHit);

  const QueryResult second = plane.service.execute(
      "{\"op\":\"snapshot\",\"metric\":\"hwt.0.user_pct\"}",
      QueryClass::kLive, 1.1);
  ASSERT_EQ(second.status, 200);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(first.body, second.body);
  EXPECT_EQ(plane.service.counters().cacheHits, 1u);
}

TEST_F(QueryServiceTest, IngestInvalidatesCachedBodies) {
  QueryPlane plane;
  plane.ingest(1.0, 1);
  const QueryResult before = plane.service.execute(
      "{\"op\":\"snapshot\"}", QueryClass::kLive, 1.0);
  ASSERT_EQ(before.status, 200);

  plane.ingest(2.0, 2, 99.0);
  // Past the refresh interval: the generation bump makes the old cache
  // key unreachable, and the sweep reclaims the entry.
  const QueryResult after = plane.service.execute(
      "{\"op\":\"snapshot\"}", QueryClass::kLive, 2.0);
  ASSERT_EQ(after.status, 200);
  EXPECT_FALSE(after.cacheHit);
  EXPECT_NE(before.body, after.body);
  EXPECT_EQ(plane.service.cacheEntries(), 1u);  // old entry swept
}

TEST_F(QueryServiceTest, GetAndPostFormsShareOneCacheEntry) {
  QueryPlane plane;
  plane.ingest(1.0, 1);

  const QueryResult post = plane.service.execute(
      "{\"op\":\"range\",\"job\":\"j1\",\"rank\":0,"
      "\"metric\":\"hwt.0.user_pct\",\"t0\":0,\"t1\":10}",
      QueryClass::kLive, 1.0);
  ASSERT_EQ(post.status, 200);
  EXPECT_FALSE(post.cacheHit);

  const QueryResult get = plane.service.executeParams(
      "range",
      {{"job", "j1"}, {"rank", "0"}, {"metric", "hwt.0.user_pct"},
       {"t0", "0"}, {"t1", "10"}},
      QueryClass::kLive, 1.1);
  ASSERT_EQ(get.status, 200);
  EXPECT_TRUE(get.cacheHit);
  EXPECT_EQ(post.body, get.body);
  EXPECT_EQ(plane.service.cacheEntries(), 1u);
}

TEST_F(QueryServiceTest, CacheBoundsEvictLeastRecentlyUsed) {
  QueryServiceOptions options;
  options.cacheMaxEntries = 2;
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  (void)plane.service.execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0);
  (void)plane.service.execute("{\"op\":\"snapshot\"}", QueryClass::kLive,
                              1.0);
  (void)plane.service.execute(
      "{\"op\":\"snapshot\",\"rank\":0}", QueryClass::kLive, 1.0);
  EXPECT_EQ(plane.service.cacheEntries(), 2u);
  EXPECT_EQ(plane.service.counters().cacheEvictions, 1u);
  // The oldest entry (series) was the victim: asking again misses.
  const QueryResult again = plane.service.execute(
      "{\"op\":\"series\"}", QueryClass::kLive, 1.0);
  EXPECT_FALSE(again.cacheHit);
}

TEST_F(QueryServiceTest, WindowFoldsTheTrailingMinute) {
  QueryPlane plane;
  for (std::uint64_t seq = 1; seq <= 30; ++seq) {
    plane.ingest(static_cast<double>(seq), seq, static_cast<double>(seq));
  }
  const QueryResult result = plane.service.executeParams(
      "window", {{"metric", "hwt.0.user_pct"}, {"window_s", "60"}},
      QueryClass::kLive, 30.0);
  ASSERT_EQ(result.status, 200);
  const json::Value doc = json::parse(result.body);
  const auto& series = doc.find("series")->asArray();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].numberOr("min", -1), 1.0);
  EXPECT_EQ(series[0].numberOr("max", -1), 30.0);
  EXPECT_EQ(series[0].numberOr("count", -1), 30.0);
}

TEST_F(QueryServiceTest, AnyWindowSizeIsFoldedAndCounted) {
  QueryPlane plane;
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    plane.ingest(static_cast<double>(seq), seq, static_cast<double>(seq));
  }
  // An arbitrary span (7 s) folds the snapshot's trailing fine windows
  // like any other, and the folded series is counted.
  const QueryResult result = plane.service.executeParams(
      "window", {{"metric", "hwt.0.user_pct"}, {"window_s", "7"}},
      QueryClass::kLive, 10.0);
  ASSERT_EQ(result.status, 200);
  const json::Value doc = json::parse(result.body);
  const auto& series = doc.find("series")->asArray();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_GT(series[0].numberOr("count", 0), 0.0);
  EXPECT_EQ(plane.service.counters().ladderFallbacks, 1u);
}

TEST_F(QueryServiceTest, BudgetExhaustionShedsWithRetryAfter) {
  QueryServiceOptions options;
  options.maxQueriesPerPoll = 3;
  options.cacheMaxEntries = 0;  // every query must claim budget
  options.retryAfterSeconds = 2.0;
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  plane.service.beginPoll(1.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(plane.service
                  .execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0)
                  .status,
              200);
  }
  const QueryResult shed =
      plane.service.execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0);
  EXPECT_EQ(shed.status, 429);
  EXPECT_EQ(shed.retryAfterSeconds, 2.0);
  EXPECT_EQ(plane.service.counters().shedLive, 1u);

  // A new poll reopens the budget.
  plane.service.beginPoll(2.0);
  EXPECT_EQ(plane.service
                .execute("{\"op\":\"series\"}", QueryClass::kLive, 2.0)
                .status,
            200);
}

TEST_F(QueryServiceTest, LiveCompletesWhileBulkSheds) {
  QueryServiceOptions options;
  options.maxQueriesPerPoll = 8;
  options.bulkQueriesPerPoll = 1;
  options.cacheMaxEntries = 0;
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  plane.service.beginPoll(1.0);
  // Exports force the bulk class regardless of what the caller asked.
  EXPECT_EQ(plane.service
                .execute("{\"op\":\"export\"}", QueryClass::kLive, 1.0)
                .status,
            200);
  EXPECT_EQ(plane.service
                .execute("{\"op\":\"export\"}", QueryClass::kBulk, 1.0)
                .status,
            429);
  // The live plane is untouched by the exhausted bulk slice.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(plane.service
                  .execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0)
                  .status,
              200);
  }
  const QueryServiceCounters counters = plane.service.counters();
  EXPECT_EQ(counters.servedBulk, 1u);
  EXPECT_EQ(counters.shedBulk, 1u);
  EXPECT_EQ(counters.servedLive, 7u);
  EXPECT_EQ(counters.shedLive, 0u);
}

TEST_F(QueryServiceTest, PressureClosesTheBulkClassEntirely) {
  DaemonOptions daemonOptions;
  daemonOptions.maxPendingBatches = 10;
  daemonOptions.maxBatchesPerPoll = 1;
  QueryServiceOptions options;
  options.cacheMaxEntries = 0;
  QueryPlane plane(options, daemonOptions);
  for (std::uint64_t seq = 1; seq <= 12; ++seq) {
    ASSERT_TRUE(
        plane.source->send(encodeFrame(batchFrame(1.0, seq), plane.names)));
  }
  plane.daemon.poll(1.0);
  ASSERT_NE(plane.daemon.pressure(), PressureLevel::kOk);

  plane.service.beginPoll(1.0);
  const QueryResult bulk =
      plane.service.execute("{\"op\":\"export\"}", QueryClass::kBulk, 1.0);
  EXPECT_EQ(bulk.status, 429);
  // Retry-After is scaled up by the pressure ladder.
  EXPECT_GT(bulk.retryAfterSeconds, options.retryAfterSeconds);
  // Live dashboards keep being served through the same overload.
  EXPECT_EQ(plane.service
                .execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0)
                .status,
            200);
}

TEST_F(QueryServiceTest, StatsAreNeverCachedOrShed) {
  QueryServiceOptions options;
  options.maxQueriesPerPoll = 0;  // everything else sheds immediately
  QueryPlane plane(options);
  plane.ingest(1.0, 1);

  plane.service.beginPoll(1.0);
  ASSERT_EQ(plane.service
                .execute("{\"op\":\"series\"}", QueryClass::kLive, 1.0)
                .status,
            429);
  const QueryResult stats =
      plane.service.execute("{\"op\":\"stats\"}", QueryClass::kLive, 1.0);
  ASSERT_EQ(stats.status, 200);
  EXPECT_FALSE(stats.cacheHit);
  const json::Value doc = json::parse(stats.body);
  // The operator can see the shedding while it happens.
  EXPECT_EQ(doc.find("queries")->numberOr("shed_live", -1), 1.0);
  EXPECT_EQ(doc.stringOr("pressure", ""), "ok");
}

TEST_F(QueryServiceTest, MalformedQueriesAre400NeverThrown) {
  QueryPlane plane;
  plane.ingest(1.0, 1);
  const char* bad[] = {
      "not json at all",
      "[1,2,3]",
      "{\"op\":\"nope\"}",
      "{\"op\":\"range\"}",                        // range needs a metric
      "{\"op\":\"window\",\"metric\":\"m\",\"window_s\":0}",
      "{\"op\":\"snapshot\",\"resolution\":\"huge\"}",
  };
  for (const char* request : bad) {
    const QueryResult result =
        plane.service.execute(request, QueryClass::kLive, 1.0);
    EXPECT_EQ(result.status, 400) << request;
    EXPECT_NE(result.body.find("error"), std::string::npos) << request;
  }
  EXPECT_EQ(plane.service.counters().badRequests, 6u);
  // GET-form parameter errors take the same path.
  const QueryResult result = plane.service.executeParams(
      "range", {{"metric", "m"}, {"t0", "abc"}}, QueryClass::kLive, 1.0);
  EXPECT_EQ(result.status, 400);
}

TEST_F(QueryServiceTest, RankOutsideIntAndNaNBoundsAre400) {
  QueryPlane plane;
  plane.ingest(1.0, 1);
  plane.ingest(2.0, 2);
  for (const char* rank : {"1e300", "-1e300", "2147483648"}) {
    const QueryResult result = plane.service.execute(
        std::string(R"({"op":"snapshot","rank":)") + rank + "}",
        QueryClass::kLive, 3.0);
    EXPECT_EQ(result.status, 400) << rank;
    EXPECT_NE(result.body.find("error"), std::string::npos) << rank;
  }
  for (const char* rank : {"1e300", "inf", "nan"}) {
    EXPECT_EQ(plane.service
                  .executeParams("snapshot", {{"rank", rank}},
                                 QueryClass::kLive, 3.0)
                  .status,
              400)
        << rank;
  }
  for (const char* bound : {"t0", "t1"}) {
    EXPECT_EQ(plane.service
                  .executeParams("range",
                                 {{"metric", "hwt.0.user_pct"},
                                  {"rank", "0"},
                                  {bound, "nan"}},
                                 QueryClass::kLive, 3.0)
                  .status,
              400)
        << bound;
  }
  // An infinite bound is a bound: the whole history.
  const QueryResult all = plane.service.executeParams(
      "range",
      {{"job", "j1"}, {"rank", "0"}, {"metric", "hwt.0.user_pct"},
       {"t0", "-inf"}, {"t1", "inf"}},
      QueryClass::kLive, 3.0);
  ASSERT_EQ(all.status, 200);
  EXPECT_EQ(json::parse(all.body).find("windows")->asArray().size(), 2U);
}

TEST_F(QueryServiceTest, WindowIgnoresRecordsTheStoreRejects) {
  // The window answer after hostile records — a NaN or infinite value, a
  // NaN, infinite, negative or unindexably large time — must equal the
  // answer without them: the window folds only what the store keeps.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  const auto windowAnswer = [](const std::vector<IdRecord>& hostile) {
    QueryPlane plane;
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      plane.ingest(static_cast<double>(seq), seq,
                   10.0 * static_cast<double>(seq));
    }
    if (!hostile.empty()) {
      Frame frame = batchFrame(5.5, 6);
      frame.records = hostile;
      EXPECT_TRUE(plane.source->send(encodeFrame(frame, plane.names)));
      plane.daemon.poll(5.5);
      EXPECT_EQ(plane.daemon.counters().recordsIngested, 5U + hostile.size());
    }
    return plane.service
        .executeParams("window",
                       {{"metric", "hwt.0.user_pct"}, {"window_s", "60"}},
                       QueryClass::kLive, 6.0)
        .body;
  };
  const std::string clean = windowAnswer({});
  EXPECT_NE(clean.find("\"count\":5"), std::string::npos) << clean;
  const names::Id cpu = names::intern("hwt.0.user_pct");
  const std::vector<IdRecord> hostile = {
      {5.2, cpu, nan}, {5.3, cpu, inf}, {5.4, cpu, -inf}, {nan, cpu, 1.0},
      {inf, cpu, 1.0}, {-1.0, cpu, 1.0}, {1e300, cpu, 1.0}};
  EXPECT_EQ(windowAnswer(hostile), clean);
  for (const IdRecord& record : hostile) {
    EXPECT_EQ(windowAnswer({record}), clean)
        << "t=" << record.timeSeconds << " value=" << record.value;
  }
}

TEST_F(QueryServiceTest, WindowTakesFarFutureButIndexableTimes) {
  QueryPlane plane;
  plane.ingest(1e15, 1);
  const QueryResult result = plane.service.executeParams(
      "window", {{"metric", "hwt.0.user_pct"}, {"window_s", "60"}},
      QueryClass::kLive, 1e15);
  ASSERT_EQ(result.status, 200);
  const json::Value doc = json::parse(result.body);
  const auto& series = doc.find("series")->asArray();
  ASSERT_EQ(series.size(), 1U);
  EXPECT_EQ(series[0].numberOr("count", -1), 1.0);
}

TEST_F(QueryServiceTest, RootHourPanelFoldsCoarseWindows) {
  // A federation root holds only forwarded windows, applied through
  // ingestWindow as a kForward frame's are: one record per second for an
  // hour, as 3600 fine windows (600 retained) and 360 coarse ones.
  QueryPlane plane;
  RollupStore& store = plane.daemon.mutableStore();
  const SeriesKey key{"j1", 0, "hwt.0.user_pct"};
  Rollup coarse;
  for (std::int64_t t = 0; t < 3600; ++t) {
    Rollup fine;
    fine.merge(static_cast<double>(t));
    ASSERT_TRUE(store.ingestWindow(key, Resolution::kFine, t, fine));
    coarse.merge(static_cast<double>(t));
    if (t % 10 == 9) {
      ASSERT_TRUE(store.ingestWindow(key, Resolution::kCoarse, t / 10, coarse));
      coarse = Rollup{};
    }
  }
  for (const char* windowSeconds : {"60", "600", "3600"}) {
    const QueryResult result = plane.service.executeParams(
        "window", {{"metric", "hwt.0.user_pct"}, {"window_s", windowSeconds}},
        QueryClass::kLive, 3600.0);
    ASSERT_EQ(result.status, 200);
    const json::Value doc = json::parse(result.body);
    EXPECT_EQ(doc.numberOr("anchor_s", -1), 3600.0);
    const auto& series = doc.find("series")->asArray();
    ASSERT_EQ(series.size(), 1U);
    const double span = std::stod(windowSeconds);
    EXPECT_EQ(series[0].numberOr("count", -1), span) << windowSeconds;
    EXPECT_EQ(series[0].numberOr("min", -1), 3600.0 - span) << windowSeconds;
    EXPECT_EQ(series[0].numberOr("max", -1), 3599.0) << windowSeconds;
  }
}

TEST_F(QueryServiceTest, WindowAnswersAreSnapshotIsolated) {
  QueryServiceOptions options;
  options.cacheMaxEntries = 0;  // compute every answer afresh
  options.snapshotMinIntervalSeconds = 10.0;
  QueryPlane plane(options);
  const auto window = [&plane](double nowSeconds) {
    return plane.service.executeParams(
        "window", {{"metric", "hwt.0.user_pct"}, {"window_s", "60"}},
        QueryClass::kLive, nowSeconds);
  };
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    plane.ingest(static_cast<double>(seq), seq);
  }
  const QueryResult first = window(5.0);
  ASSERT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"count\":5"), std::string::npos) << first.body;
  // The t=6 record lands inside the refresh interval: the second answer
  // reads the same snapshot, so it must be the same body.
  plane.ingest(6.0, 6);
  const QueryResult second = window(6.0);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(second.body, first.body);
}

TEST_F(QueryServiceTest, ExportReadsTheEngineUnderTheThreadedWritersLock) {
  // The writer thread appends and compacts while the query thread
  // exports the engine's whole history; each of the export's engine
  // reads must hold the writer's engine mutex as Aggregator::query does,
  // or a ThreadSanitizer build reports the race.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("zs_export_race_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    tsdb::EngineOptions engineOptions;
    engineOptions.fsync = tsdb::FsyncPolicy::kOff;
    engineOptions.walRotateBytes = 8192;  // compactions during the run
    tsdb::Engine engine(dir.string(), engineOptions);
    WriterOptions writerOptions;
    writerOptions.threaded = true;
    TsdbWriter writer(&engine, writerOptions);
    QueryServiceOptions queryOptions;
    queryOptions.cacheMaxEntries = 0;  // every export reads the engine
    QueryPlane plane(queryOptions);
    plane.daemon.attachWriter(&writer);
    constexpr int kPolls = 300;
    // The writer's backlog can raise the pressure only from this poll on.
    const auto elevatedFrom =
        static_cast<int>(writerOptions.maxPendingBatches / 2);
    std::uint64_t shed = 0;
    for (int i = 1; i <= kPolls; ++i) {
      const double t = static_cast<double>(i);
      // Eight series, so the writer's appends and compactions keep
      // inserting into the engine's maps.
      Frame batch = batchFrame(t, static_cast<std::uint64_t>(i));
      for (int metric = 1; metric < 8; ++metric) {
        batch.records.push_back(
            {t, names::intern("hwt." + std::to_string(metric) + ".user_pct"),
             50.0});
      }
      ASSERT_TRUE(plane.source->send(encodeFrame(batch, plane.names)));
      plane.daemon.poll(t);
      plane.service.beginPoll(t);
      const QueryResult result =
          plane.service.execute("{\"op\":\"export\"}", QueryClass::kBulk, t);
      if (result.status == 429) {
        // The exports' reads can keep the writer thread off the engine
        // for over a hundred polls.  Its backlog then raises the pressure
        // (a retry-after scaled past the base), and that sheds the export.
        EXPECT_GE(i, elevatedFrom) << result.body;
        EXPECT_GT(result.retryAfterSeconds, queryOptions.retryAfterSeconds);
        ++shed;
        continue;
      }
      ASSERT_EQ(result.status, 200) << result.body;
    }
    EXPECT_EQ(plane.service.counters().shedBulk, shed);
    // A full writer queue leaves batches with the daemon; write them all.
    plane.daemon.drainBacklog(static_cast<double>(kPolls));
    std::lock_guard<std::mutex> lock(writer.engineMutex());
    EXPECT_GT(engine.counters().compactions, 0U);
    EXPECT_EQ(engine.range({"j1", 0, "hwt.0.user_pct"}, 0.0, 1e9).size(),
              static_cast<std::size_t>(kPolls));
  }
  std::filesystem::remove_all(dir);
}

namespace {

/// A daemon fed by one adaptive client while a keep-alive reader sends
/// GET /api/query through the mounted HTTP endpoints, as a dashboard
/// reads zerosum-aggd.
struct HttpQueryPlane {
  HttpQueryPlane()
      : daemon(wireHub.makeServer()),
        http(httpHub.makeServer()),
        service(daemon),
        reader(httpHub.makeClientTransport()) {
    Hello hello;
    hello.job = "load";
    hello.rank = 0;
    hello.worldSize = 1;
    hello.hostname = "node0000";
    hello.pid = 1000;
    client = std::make_unique<Client>(wireHub.makeClientTransport(), hello);
    mountDaemonEndpoints(http, daemon, [this] { return t; },
                         {{"job", "load"}, {"role", "daemon"}}, &service);
    EXPECT_TRUE(reader->connect());
  }

  /// One keep-alive GET: the response's status, or 0 when no whole
  /// response came back.
  int get(const std::string& target) {
    reader->send("GET " + target + " HTTP/1.1\r\n\r\n");
    std::string response;
    for (int i = 0; i < 64; ++i) {
      http.poll();
      reader->receive(response);
      const std::size_t headerEnd = response.find("\r\n\r\n");
      const std::size_t lengthAt = response.find("Content-Length: ");
      if (headerEnd == std::string::npos || lengthAt > headerEnd) {
        continue;
      }
      const std::size_t length = std::stoul(response.substr(lengthAt + 16));
      if (response.size() >= headerEnd + 4 + length) {
        return std::atoi(response.c_str() + 9);  // after "HTTP/1.1 "
      }
    }
    return 0;
  }

  PipeHub wireHub;
  PipeHub httpHub;
  Aggregator daemon;
  HttpServer http;
  QueryService service;
  std::unique_ptr<Transport> reader;
  std::unique_ptr<Client> client;
  double t = 1.0;
};

}  // namespace

TEST_F(QueryServiceTest, MixedLoadShedsExcessReadsWithoutStallingOrDropping) {
  // 300 periods of 128 records each, with dashboard reads every period,
  // a bulk export every tenth, and 200 cache-busting reads in each of
  // the last 30: more than one poll's budget of 128.
  constexpr int kPeriods = 300;
  constexpr int kOverloadFrom = kPeriods - 30;
  constexpr int kOverloadQueries = 200;
  std::vector<std::string> metrics;
  std::vector<IdRecord> batch;
  for (int m = 0; m < 16; ++m) {
    metrics.push_back("load.metric." + std::to_string(m));
    for (int s = 0; s < 8; ++s) {
      batch.push_back({0.0, names::intern(metrics.back()), 0.0});
    }
  }
  HttpQueryPlane plane;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t incomplete = 0;
  for (int period = 0; period < kPeriods; ++period, plane.t += 1.0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].timeSeconds = plane.t;
      batch[i].value = period % 100 + static_cast<double>(i % 8);
    }
    plane.client->enqueueIds(batch, plane.t);
    plane.daemon.poll(plane.t);
    plane.client->pump(plane.t);
    plane.service.beginPoll(plane.t);
    // The dashboard working set: a few distinct queries repeated every
    // refresh, the shape the result cache exists for.
    for (int q = 0; q < 8; ++q) {
      const std::string& metric = metrics[static_cast<std::size_t>(q % 4)];
      const std::string target =
          q % 3 == 0 ? "/api/query?op=window&metric=" + metric + "&window_s=60"
          : q % 3 == 1 ? "/api/query?op=snapshot&metric=" + metric
                       : std::string("/api/query?op=series");
      ASSERT_EQ(plane.get(target), 200) << target << " at " << period;
    }
    if (period % 10 == 9) {
      // The bulk export rides the small bulk slice of the budget.
      const int status = plane.get("/api/query?op=export&metric=" + metrics[0]);
      ASSERT_TRUE(status == 200 || status == 429) << status;
    }
    if (period < kOverloadFrom) {
      continue;
    }
    for (int q = 0; q < kOverloadQueries; ++q) {
      const int status =
          plane.get("/api/query?op=range&metric=" + metrics[0] +
                    "&job=load&rank=0&t0=" + std::to_string(period * 1000 + q));
      ++(status == 200 ? served : status == 429 ? shed : incomplete);
    }
  }
  // Shed, never stalled: within-budget reads answered, the excess got a
  // prompt 429, and the ingest path lost nothing to the read load.
  EXPECT_GT(served, 0U);
  EXPECT_GT(shed, 0U);
  EXPECT_EQ(incomplete, 0U);
  const ClientCounters& client = plane.client->counters();
  EXPECT_EQ(client.recordsDropped, 0U);
  EXPECT_LE(client.recordsAcked, plane.daemon.counters().recordsIngested);
  // Virtual time makes the cache's work deterministic: 1 343 hits in
  // 6 162 lookups when first recorded, held here to within 10 %.
  const QueryServiceCounters counters = plane.service.counters();
  const double hitRatio =
      static_cast<double>(counters.cacheHits) /
      static_cast<double>(counters.cacheHits + counters.cacheMisses);
  EXPECT_GE(hitRatio, 1343.0 / 6162.0 / 1.1);
}
