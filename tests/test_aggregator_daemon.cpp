// Aggregator daemon + query service + end-to-end paths:
//   * source lifecycle over the pipe transport (hello, batches, stale
//     eviction, goodbye, missing ranks)
//   * the JSON query service, inline and over the wire
//   * the cluster-simulation e2e: 4 ranks publishing through their
//     SessionPublishers into one daemon, rollups answered per rank
//   * loopback TCP: connect, batch, and reconnect across a daemon
//     restart
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/query.hpp"
#include "aggregator/tcp.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "cluster/job.hpp"
#include "common/error.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "topology/presets.hpp"
#include "trace/metrics.hpp"
#include "trace/prometheus.hpp"
#include "tsdb/engine.hpp"
#include "tsdb/wal.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

Hello rankIdentity(int rank, int worldSize = 4,
                   const std::string& job = "job") {
  Hello hello;
  hello.job = job;
  hello.rank = rank;
  hello.worldSize = worldSize;
  hello.hostname = "node000" + std::to_string(rank / 2);
  hello.pid = 100 + rank;
  return hello;
}

/// A raw pipe endpoint speaking frames directly (no Client batching),
/// so tests control exactly what the daemon sees.  Its frames share one
/// connection, and so one name table.
struct RawSource {
  explicit RawSource(PipeHub& hub) : transport(hub.makeClientTransport()) {
    EXPECT_TRUE(transport->connect());
  }
  void send(const Frame& frame) {
    EXPECT_TRUE(transport->send(encodeFrame(frame, names)));
  }
  void hello(int rank, int worldSize = 4) {
    Frame frame;
    frame.kind = FrameKind::kHello;
    frame.hello = rankIdentity(rank, worldSize);
    send(frame);
  }
  void batch(double t, const std::string& metric, double value) {
    Frame frame;
    frame.kind = FrameKind::kBatch;
    frame.timeSeconds = t;
    frame.records.push_back({t, names::intern(metric), value});
    send(frame);
  }
  std::unique_ptr<Transport> transport;
  NameRefs names;
};

}  // namespace

TEST(AggDaemon, BindsSourcesViaHelloAndFillsStore) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource r0(hub);
  RawSource r1(hub);
  r0.hello(0);
  r1.hello(1);
  r0.batch(1.5, "hwt.0.user_pct", 80.0);
  r0.batch(1.5, "hwt.0.user_pct", 90.0);
  r1.batch(1.5, "hwt.0.user_pct", 10.0);
  daemon.poll(2.0);

  EXPECT_EQ(daemon.counters().batchesIngested, 3U);
  EXPECT_EQ(daemon.counters().recordsIngested, 3U);
  const auto sources = daemon.sources();
  ASSERT_EQ(sources.size(), 2U);
  EXPECT_EQ(sources[0].hello.rank, 0);
  EXPECT_EQ(sources[0].records, 2U);
  EXPECT_EQ(sources[1].records, 1U);

  // Rollups are per rank: rank 0 averages 85, rank 1 reads 10.
  const auto w0 = daemon.store().latest({"job", 0, "hwt.0.user_pct"});
  const auto w1 = daemon.store().latest({"job", 1, "hwt.0.user_pct"});
  ASSERT_TRUE(w0 && w1);
  EXPECT_DOUBLE_EQ(w0->rollup.avg(), 85.0);
  EXPECT_DOUBLE_EQ(w0->rollup.min, 80.0);
  EXPECT_DOUBLE_EQ(w1->rollup.avg(), 10.0);
}

TEST(AggDaemon, DataBeforeHelloCountsAsOrphan) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource source(hub);
  source.batch(1.0, "m", 1.0);  // never said hello
  daemon.poll(1.0);
  EXPECT_EQ(daemon.counters().orphanFrames, 1U);
  EXPECT_EQ(daemon.store().seriesCount(), 0U);
}

TEST(AggDaemon, MalformedBytesDropTheConnectionOnly) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource good(hub);
  good.hello(0);
  RawSource bad(hub);
  std::string garbage = encodeFrame([] {
    Frame f;
    f.kind = FrameKind::kHeartbeat;
    f.timeSeconds = 1.0;
    return f;
  }());
  garbage[4] = 99;  // bad version
  EXPECT_TRUE(bad.transport->send(garbage));
  good.batch(1.0, "m", 1.0);
  daemon.poll(1.0);
  EXPECT_EQ(daemon.counters().decodeErrors, 1U);
  // The good source is unaffected.
  EXPECT_EQ(daemon.counters().recordsIngested, 1U);
  // The bad connection was cut from the server side.
  std::string out;
  EXPECT_FALSE(bad.transport->receive(out));
}

TEST(AggDaemon, SilentSourceGoesStaleAndItsSeriesAreEvicted) {
  PipeHub hub;
  StoreOptions options;
  options.staleSeconds = 5.0;
  Aggregator daemon(hub.makeServer(), options);
  RawSource r0(hub);
  RawSource r1(hub);
  r0.hello(0);
  r1.hello(1);
  r0.batch(1.0, "m", 1.0);
  r1.batch(1.0, "m", 2.0);
  daemon.poll(1.0);
  EXPECT_EQ(daemon.store().seriesCount(), 2U);

  // Rank 1 keeps reporting; rank 0 goes silent past the horizon.
  r1.batch(8.0, "m", 2.0);
  daemon.poll(8.0);
  EXPECT_EQ(daemon.counters().sourcesEvicted, 1U);
  const auto sources = daemon.sources();
  EXPECT_EQ(sources[0].state, SourceState::kStale);
  EXPECT_EQ(sources[1].state, SourceState::kActive);
  EXPECT_EQ(daemon.store().seriesCount(), 1U);
  EXPECT_TRUE(daemon.store().keysOf("job", 0).empty());

  // The dashboard reports the pathology.
  const std::string dash = daemon.dashboard(8.0);
  EXPECT_NE(dash.find("rank 0 of job 'job' is stale"), std::string::npos);

  // A returning rank flips back to active.
  r0.batch(9.0, "m", 3.0);
  daemon.poll(9.0);
  EXPECT_EQ(daemon.sources()[0].state, SourceState::kActive);
}

TEST(AggDaemon, GoodbyeMarksDepartedAndAllDeparted) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  EXPECT_FALSE(daemon.allDeparted());  // vacuously false: nobody seen
  RawSource r0(hub);
  r0.hello(0, 1);
  daemon.poll(1.0);
  EXPECT_FALSE(daemon.allDeparted());
  Frame goodbye;
  goodbye.kind = FrameKind::kGoodbye;
  goodbye.timeSeconds = 2.0;
  r0.send(goodbye);
  daemon.poll(2.0);
  EXPECT_EQ(daemon.sources()[0].state, SourceState::kDeparted);
  EXPECT_TRUE(daemon.allDeparted());
}

TEST(AggDaemon, MissingRanksComeFromAnnouncedWorldSize) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource r0(hub);
  RawSource r2(hub);
  r0.hello(0, 4);
  r2.hello(2, 4);
  daemon.poll(1.0);
  const auto missing = daemon.missingRanks("job");
  ASSERT_EQ(missing.size(), 2U);
  EXPECT_EQ(missing[0], 1);
  EXPECT_EQ(missing[1], 3);
  const std::string dash = daemon.dashboard(1.0);
  EXPECT_NE(dash.find("never heard from: 1 3"), std::string::npos);
}

TEST(AggDaemon, DashboardCpuColumnAveragesEachHwtUserPct) {
  // The cpu avg% column is the mean of the newest coarse window of every
  // hwt.<n>.user_pct series of the rank; hwt.0.user_pct_x is not one.
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource r0(hub);
  RawSource r1(hub);
  r0.hello(0);
  r1.hello(1);
  r0.batch(1.5, "hwt.0.user_pct", 40.0);
  r0.batch(1.5, "hwt.0.user_pct", 50.0);  // coarse window avg 45
  r0.batch(1.5, "hwt.12.user_pct", 75.0);
  r0.batch(1.5, "hwt.0.user_pct_x", 1000.0);
  r0.batch(1.5, "hwt.0.idle_pct", 5.0);
  r1.batch(1.5, "hwt.0.user_pct_x", 1000.0);
  daemon.poll(2.0);

  // Each rank row: rank, node, state, last seen, records, cpu avg%,
  // degraded, quarantined.
  std::map<std::string, std::vector<std::string>> rows;
  std::istringstream lines(daemon.dashboard(2.0));
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::vector<std::string> row;
    for (std::string field; fields >> field;) {
      row.push_back(field);
    }
    if (row.size() == 8 && (row[0] == "0" || row[0] == "1")) {
      rows[row[0]] = row;
    }
  }
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows["0"][4], "5");
  EXPECT_EQ(rows["0"][5], "60.0");  // (45 + 75) / 2
  EXPECT_EQ(rows["1"][5], "-");     // no hwt.<n>.user_pct series
}

TEST(AggQuery, SnapshotRangeSourcesAndErrors) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource r0(hub);
  r0.hello(0);
  r0.batch(1.5, "hwt.0.user_pct", 50.0);
  r0.batch(2.5, "hwt.0.user_pct", 70.0);
  daemon.poll(3.0);

  // snapshot, filtered by rank
  const json::Value snap =
      json::parse(daemon.query(R"({"op":"snapshot","rank":0})"));
  const auto& series = snap.find("series")->asArray();
  ASSERT_EQ(series.size(), 1U);
  EXPECT_EQ(series[0].stringOr("metric", ""), "hwt.0.user_pct");
  EXPECT_DOUBLE_EQ(series[0].find("fine")->numberOr("avg", -1.0), 70.0);
  // the coarse window spans both samples
  EXPECT_DOUBLE_EQ(series[0].find("coarse")->numberOr("avg", -1.0), 60.0);
  EXPECT_DOUBLE_EQ(series[0].find("coarse")->numberOr("count", -1.0), 2.0);

  // snapshot filtered to a rank with no series
  const json::Value empty =
      json::parse(daemon.query(R"({"op":"snapshot","rank":9})"));
  EXPECT_TRUE(empty.find("series")->asArray().empty());

  // range
  const json::Value range = json::parse(daemon.query(
      R"({"op":"range","job":"job","rank":0,"metric":"hwt.0.user_pct",)"
      R"("t0":0,"t1":10})"));
  ASSERT_EQ(range.find("windows")->asArray().size(), 2U);
  EXPECT_DOUBLE_EQ(
      range.find("windows")->asArray()[0].numberOr("min", -1.0), 50.0);

  // sources
  const json::Value sources =
      json::parse(daemon.query(R"({"op":"sources"})"));
  ASSERT_EQ(sources.find("sources")->asArray().size(), 1U);
  EXPECT_EQ(sources.find("sources")->asArray()[0].stringOr("state", ""),
            "active");

  // dashboard rides the query path too
  const json::Value dash =
      json::parse(daemon.query(R"({"op":"dashboard"})"));
  EXPECT_NE(dash.stringOr("text", "").find("Aggregator dashboard"),
            std::string::npos);

  // errors: unknown op, malformed JSON, range without metric, non-object
  EXPECT_NE(daemon.query(R"({"op":"nope"})").find("error"),
            std::string::npos);
  EXPECT_NE(daemon.query("{{{").find("error"), std::string::npos);
  EXPECT_NE(daemon.query(R"({"op":"range"})").find("error"),
            std::string::npos);
  EXPECT_NE(daemon.query("[1,2]").find("error"), std::string::npos);
}

TEST(AggQuery, RankOutsideIntIsAnError) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource r0(hub);
  r0.hello(0);
  r0.batch(1.5, "hwt.0.user_pct", 50.0);
  daemon.poll(2.0);
  for (const char* rank : {"1e300", "-1e300", "2147483648"}) {
    EXPECT_NE(daemon.query(std::string(R"({"op":"snapshot","rank":)") + rank +
                           "}")
                  .find("error"),
              std::string::npos)
        << rank;
    EXPECT_NE(daemon.query(std::string(R"({"op":"range","metric":"m","rank":)") +
                           rank + "}")
                  .find("error"),
              std::string::npos)
        << rank;
  }
}

TEST(AggQuery, RequestOverPipeTransportRoundTrips) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource r0(hub);
  r0.hello(0);
  r0.batch(1.0, "m", 42.0);
  daemon.poll(1.0);

  auto reader = hub.makeClientTransport();
  const auto response = requestOverTransport(
      *reader, R"({"op":"snapshot"})", [&] { daemon.poll(2.0); });
  ASSERT_TRUE(response.has_value());
  const json::Value doc = json::parse(*response);
  ASSERT_EQ(doc.find("series")->asArray().size(), 1U);
  EXPECT_EQ(daemon.counters().queriesServed, 1U);
}

TEST(AggQuery, UnreachableDaemonYieldsNullopt) {
  PipeHub hub;
  hub.setDown(true);
  auto reader = hub.makeClientTransport();
  EXPECT_FALSE(
      requestOverTransport(*reader, R"({"op":"sources"})", nullptr, 3)
          .has_value());
}

// --- the e2e acceptance path: 4 simulated ranks -> one aggregator ----------

TEST(AggE2E, ClusterJobRanksPublishIntoOneAggregator) {
  cluster::ClusterJobConfig cfg;
  cfg.nodes = 2;
  cfg.ranksPerNode = 2;
  cfg.cpusPerTask = 7;
  cfg.workload.ompThreads = 4;
  cfg.workload.steps = 40;
  cfg.workload.workPerStep = 10;
  const auto topo = topology::presets::frontier();
  cluster::ClusterJob job(topo, cfg);
  job.enableAggregation("e2e");
  ASSERT_NE(job.aggregatorDaemon(), nullptr);
  job.run();

  Aggregator& daemon = *job.aggregatorDaemon();
  // Every rank announced itself, streamed batches, and said goodbye.
  const auto sources = daemon.sources();
  ASSERT_EQ(sources.size(), 4U);
  for (int rank = 0; rank < 4; ++rank) {
    const auto& info = sources[static_cast<std::size_t>(rank)];
    EXPECT_EQ(info.hello.rank, rank);
    EXPECT_EQ(info.hello.worldSize, 4);
    EXPECT_EQ(info.hello.hostname, job.hostnameOf(rank / 2)) << rank;
    EXPECT_EQ(info.state, SourceState::kDeparted) << rank;
    EXPECT_GT(info.records, 0U) << rank;
    EXPECT_GT(info.health.samplesTaken, 0U) << rank;
  }
  EXPECT_TRUE(daemon.allDeparted());
  EXPECT_TRUE(daemon.missingRanks("e2e").empty());
  EXPECT_EQ(daemon.counters().decodeErrors, 0U);
  EXPECT_EQ(daemon.counters().orphanFrames, 0U);
  // The in-memory path is lossless: every record a rank offered landed.
  std::uint64_t enqueued = 0;
  for (int rank = 0; rank < 4; ++rank) {
    const ClientCounters& c = job.aggClient(rank).counters();
    EXPECT_EQ(c.recordsDropped, 0U) << rank;
    enqueued += c.recordsEnqueued;
  }
  EXPECT_EQ(daemon.counters().recordsIngested, enqueued);

  // Per-rank rollups: each rank publishes its RSS once per sampled
  // period, so the total count across retained fine windows matches the
  // samples the rank's own monitor took.
  for (int rank = 0; rank < 4; ++rank) {
    const SeriesKey key{"e2e", rank, "mem.process_rss_kb"};
    const auto windows =
        daemon.store().range(key, 0.0, job.runtimeSeconds() + 1.0);
    ASSERT_FALSE(windows.empty()) << rank;
    std::uint64_t samples = 0;
    for (const auto& w : windows) {
      samples += w.rollup.count;
      EXPECT_LE(w.rollup.min, w.rollup.max);
      EXPECT_GT(w.rollup.min, 0.0);  // a live process has RSS
    }
    EXPECT_EQ(samples, job.session(rank).health().samplesTaken) << rank;
  }

  // The snapshot query answers per-rank series (the acceptance check).
  const json::Value snap =
      json::parse(daemon.query(R"({"op":"snapshot","rank":2})"));
  const auto& series = snap.find("series")->asArray();
  ASSERT_FALSE(series.empty());
  for (const auto& entry : series) {
    EXPECT_EQ(entry.numberOr("rank", -1.0), 2.0);
    EXPECT_EQ(entry.stringOr("job", ""), "e2e");
  }
  // HWT utilization made it through with plausible percentages.
  bool sawHwt = false;
  for (const auto& entry : series) {
    const std::string metric = entry.stringOr("metric", "");
    if (metric.rfind("hwt.", 0) == 0 &&
        metric.find(".user_pct") != std::string::npos) {
      sawHwt = true;
      const double avg = entry.find("fine")->numberOr("avg", -1.0);
      EXPECT_GE(avg, 0.0);
      EXPECT_LE(avg, 100.0);
    }
  }
  EXPECT_TRUE(sawHwt);

  // The dashboard renders all four ranks with no pathologies.
  const std::string dash = daemon.dashboard(job.runtimeSeconds());
  EXPECT_NE(dash.find("4 source(s)"), std::string::npos);
  EXPECT_NE(dash.find("no cross-rank pathologies detected"),
            std::string::npos);
}

// --- loopback TCP: live transport, daemon restart ---------------------------

namespace {

/// Polls the daemon until its counters satisfy `done` or rounds expire.
template <typename Pred>
bool pollUntil(Aggregator& daemon, double now, Pred done) {
  for (int i = 0; i < 200; ++i) {
    daemon.poll(now);
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace

TEST(AggTcp, ConnectBatchQueryAndReconnectAcrossDaemonRestart) {
  auto server = std::make_unique<TcpServer>(0);
  const int port = server->port();
  ASSERT_GT(port, 0);
  auto daemon = std::make_unique<Aggregator>(std::move(server));

  ClientOptions options;
  options.batchRecords = 1;  // flush immediately
  options.reconnectBackoffSeconds = 0.01;
  Client client(std::make_unique<TcpTransport>("127.0.0.1", port),
                rankIdentity(0, 1), options);
  client.enqueueIds({{1.0, names::intern("m"), 5.0}}, 1.0);
  ASSERT_TRUE(pollUntil(*daemon, 1.0, [&] {
    return daemon->counters().recordsIngested >= 1;
  }));
  EXPECT_EQ(daemon->sources().size(), 1U);

  // Query over the same TCP framing.
  TcpTransport reader("127.0.0.1", port);
  std::optional<std::string> response;
  std::thread querier([&] {
    response = requestOverTransport(
        reader, R"({"op":"snapshot"})",
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
  });
  pollUntil(*daemon, 2.0,
            [&] { return daemon->counters().queriesServed >= 1; });
  querier.join();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(json::parse(*response).find("series")->asArray().size(), 1U);

  // Kill the daemon: the failure is observed and counted, nothing
  // throws.  Depending on timing the client either sees the EOF on its
  // ack stream first (and then fails to reconnect) or has a send fail in
  // flight, so push until any failure counter surfaces.
  daemon.reset();
  bool failureSeen = false;
  for (int attempt = 0; attempt < 50 && !failureSeen; ++attempt) {
    client.enqueueIds({{2.0, names::intern("m"), 6.0}},
                      2.0 + static_cast<double>(attempt));
    failureSeen = client.counters().sendFailures +
                      client.counters().connectFailures +
                      client.counters().recordsDropped >
                  0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(failureSeen);

  // Restart on the same port: the client reconnects, re-announces, and
  // resumes streaming.
  auto restarted = std::make_unique<Aggregator>(
      std::make_unique<TcpServer>(port));
  bool delivered = false;
  for (int attempt = 0; attempt < 200 && !delivered; ++attempt) {
    client.enqueueIds({{3.0, names::intern("m"), 7.0}},
                      3.0 + static_cast<double>(attempt));  // past any backoff
    restarted->poll(3.0);
    delivered = restarted->counters().recordsIngested >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(delivered);
  ASSERT_EQ(restarted->sources().size(), 1U);  // Hello re-announced
  EXPECT_EQ(restarted->sources()[0].hello.rank, 0);
  EXPECT_GE(client.counters().reconnects, 1U);
}

// --- admission control, pressure, and ack gating ----------------------------

namespace {

/// Drains the client side of a raw source into decoded frames.
std::vector<Frame> receiveFrames(Transport& transport, FrameReader& reader) {
  std::string bytes;
  transport.receive(bytes);
  reader.feed(bytes);
  std::vector<Frame> frames;
  Frame frame;
  while (reader.next(frame)) {
    frames.push_back(frame);
  }
  return frames;
}

}  // namespace

TEST(AggAdmission, PerPollBudgetDefersBatchesWithoutDropping) {
  PipeHub hub;
  DaemonOptions options;
  options.maxBatchesPerPoll = 2;
  options.maxPendingBatches = 64;
  Aggregator daemon(hub.makeServer(), {}, options);
  RawSource source(hub);
  source.hello(0);
  for (int i = 0; i < 10; ++i) {
    source.batch(1.0, "m", static_cast<double>(i));
  }

  daemon.poll(1.0);
  EXPECT_EQ(daemon.counters().batchesIngested, 2U);
  EXPECT_GT(daemon.counters().batchesDeferred, 0U);
  EXPECT_EQ(daemon.ingestBacklog(), 8U);

  // Nothing is lost: later polls work the backlog off, budget per poll.
  for (int polls = 0; polls < 10; ++polls) {
    daemon.poll(1.0 + polls);
  }
  EXPECT_EQ(daemon.counters().batchesIngested, 10U);
  EXPECT_EQ(daemon.counters().recordsIngested, 10U);
  EXPECT_EQ(daemon.ingestBacklog(), 0U);
}

TEST(AggAdmission, OverflowBackstopsInlineInsteadOfDropping) {
  PipeHub hub;
  DaemonOptions options;
  options.maxBatchesPerPoll = 1;  // nearly nothing drains per poll
  options.maxPendingBatches = 4;  // tiny admission queue
  Aggregator daemon(hub.makeServer(), {}, options);
  RawSource source(hub);
  source.hello(0);
  for (int i = 0; i < 20; ++i) {
    source.batch(1.0, "m", static_cast<double>(i));
  }
  daemon.poll(1.0);
  // The queue held 4; the rest were forced through inline (backstop) —
  // every record still lands eventually.
  EXPECT_GT(daemon.counters().admissionBackstops, 0U);
  for (int polls = 0; polls < 8; ++polls) {
    daemon.poll(2.0 + polls);
  }
  EXPECT_EQ(daemon.counters().recordsIngested, 20U);
}

TEST(AggAdmission, PressureRisesWithBacklogAndRidesEveryAck) {
  PipeHub hub;
  DaemonOptions options;
  options.maxBatchesPerPoll = 1;
  options.maxPendingBatches = 10;
  options.elevatedQueueFraction = 0.3;
  options.overloadedQueueFraction = 0.8;
  Aggregator daemon(hub.makeServer(), {}, options);
  EXPECT_EQ(daemon.pressure(), PressureLevel::kOk);

  RawSource source(hub);
  source.hello(0);
  Frame batch;
  batch.kind = FrameKind::kBatch;
  batch.timeSeconds = 1.0;
  batch.records.push_back({1.0, names::intern("m"), 1.0});
  for (std::uint64_t seq = 1; seq <= 9; ++seq) {
    batch.batchSeq = seq;
    source.send(batch);
  }
  daemon.poll(1.0);  // 1 processed, 8 pending of 10 -> overloaded
  EXPECT_EQ(daemon.pressure(), PressureLevel::kOverloaded);

  // The one ack sent so far carries the pressure computed at send time.
  FrameReader reader;
  auto frames = receiveFrames(*source.transport, reader);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames[0].kind, FrameKind::kBatchAck);
  EXPECT_EQ(frames[0].batchSeq, 1U);
  EXPECT_GE(frames[0].pressure, PressureLevel::kElevated);

  // Draining the backlog brings the level back to ok, and the acks keep
  // coming — cumulative, in sequence order.
  for (int polls = 0; polls < 12; ++polls) {
    daemon.poll(2.0 + polls);
  }
  EXPECT_EQ(daemon.pressure(), PressureLevel::kOk);
  frames = receiveFrames(*source.transport, reader);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().batchSeq, 9U);
  EXPECT_EQ(daemon.counters().acksSent, 9U);
}

TEST(AggAdmission, HeartbeatsAnswerImmediatelyWithPressure) {
  PipeHub hub;
  DaemonOptions options;
  options.maxBatchesPerPoll = 1;
  options.maxPendingBatches = 10;
  Aggregator daemon(hub.makeServer(), {}, options);
  RawSource source(hub);
  source.hello(0);
  Frame heartbeat;
  heartbeat.kind = FrameKind::kHeartbeat;
  heartbeat.timeSeconds = 1.0;
  source.send(heartbeat);
  daemon.poll(1.0);

  FrameReader reader;
  const auto frames = receiveFrames(*source.transport, reader);
  ASSERT_EQ(frames.size(), 1U);
  EXPECT_EQ(frames[0].kind, FrameKind::kBatchAck);
  EXPECT_EQ(frames[0].batchSeq, 0U);  // pressure-only, acks no batch
  EXPECT_EQ(frames[0].pressure, PressureLevel::kOk);
  EXPECT_EQ(daemon.counters().heartbeats, 1U);
}

TEST(AggAdmission, DeferredBatchesSurviveTheConnectionClosing) {
  // A client that sends a burst and disconnects must still have its
  // admitted batches land: the admission entry captured the source
  // binding at decode time.
  PipeHub hub;
  DaemonOptions options;
  options.maxBatchesPerPoll = 1;
  options.maxPendingBatches = 64;
  Aggregator daemon(hub.makeServer(), {}, options);
  {
    RawSource source(hub);
    source.hello(0);
    for (int i = 0; i < 6; ++i) {
      source.batch(1.0, "m", static_cast<double>(i));
    }
    daemon.poll(1.0);  // admits all 6, processes 1
    ASSERT_EQ(daemon.ingestBacklog(), 5U);
    source.transport->close();
  }
  for (int polls = 0; polls < 8; ++polls) {
    daemon.poll(2.0 + polls);
  }
  EXPECT_EQ(daemon.counters().recordsIngested, 6U);
  const auto w = daemon.store().latest({"job", 0, "m"});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->rollup.count, 6U);
}

TEST(AggAdmission, DrainBacklogFlushesEverythingForOrderlyShutdown) {
  PipeHub hub;
  DaemonOptions options;
  options.maxBatchesPerPoll = 1;
  Aggregator daemon(hub.makeServer(), {}, options);
  RawSource source(hub);
  source.hello(0);
  for (int i = 0; i < 12; ++i) {
    source.batch(1.0, "m", static_cast<double>(i));
  }
  daemon.poll(1.0);
  ASSERT_GT(daemon.ingestBacklog(), 0U);
  daemon.drainBacklog(2.0);
  EXPECT_EQ(daemon.ingestBacklog(), 0U);
  EXPECT_EQ(daemon.counters().recordsIngested, 12U);
}

// --- a full name table (DESIGN.md §8) ---------------------------------------

namespace {

/// Caps the interner at the names it already holds, for the guard's
/// life: every new name is refused, as when the table is full.
struct FullInterner {
  FullInterner() { names::setCapacity(names::internedCount()); }
  ~FullInterner() { names::setCapacity(names::kMaxNames); }
  FullInterner(const FullInterner&) = delete;
  FullInterner& operator=(const FullInterner&) = delete;
};

/// `bytes` with each `from` replaced by `to`, a text of the same length.
std::string renamed(std::string bytes, std::string_view from,
                    std::string_view to) {
  for (auto at = bytes.find(from); at != std::string::npos;
       at = bytes.find(from, at)) {
    bytes.replace(at, from.size(), to);
  }
  return bytes;
}

}  // namespace

TEST(AggAdmission, WhatARefusedNameWouldKeyIsDroppedAndCounted) {
  // The interner is full when one connection's Hello declares a new job,
  // when another's batch declares a new metric, and when a forwarded
  // block declares a new job.  The records and windows such a name would
  // key are dropped and counted, never filed under "" in the store or the
  // WAL, and every batch is still acked.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("zs_refused_names_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    tsdb::EngineOptions engineOptions;
    engineOptions.fsync = tsdb::FsyncPolicy::kOff;
    tsdb::Engine engine(dir.string(), engineOptions);
    PipeHub hub;
    Aggregator daemon(hub.makeServer());
    daemon.attachEngine(&engine);
    RawSource refusedJob(hub);
    RawSource namedJob(hub);
    RawSource forwarder(hub);
    Frame forward;
    forward.kind = FrameKind::kForward;
    forward.batchSeq = 1;
    forward.origin = "group-0";
    forward.hopCount = 1;
    forward.forwardSeries.open() = {"refused.jobA", 5, "refused.kept"};
    forward.forwardSeries.push({Resolution::kFine, 1, {1.0, 1.0, 1.0, 1}});
    forward.forwardSeries.push({Resolution::kCoarse, 0, {1.0, 1.0, 1.0, 1}});
    Frame batch;
    batch.kind = FrameKind::kBatch;
    batch.timeSeconds = 1.5;
    batch.batchSeq = 1;
    batch.records = {{1.5, names::intern("refused.kept"), 1.0},
                     {1.5, names::intern("refused.metricA"), 2.0}};
    names::intern("job");
    {
      const FullInterner full;
      Frame hello;
      hello.kind = FrameKind::kHello;
      hello.hello = rankIdentity(0, 2, "refused.job");
      refusedJob.send(hello);
      refusedJob.send(batch);
      namedJob.hello(1, 2);
      // The second record's name reaches the daemon as text it never
      // interned.
      EXPECT_TRUE(namedJob.transport->send(
          renamed(encodeFrame(batch, namedJob.names), "refused.metricA",
                  "refused.metricB")));
      EXPECT_TRUE(forwarder.transport->send(renamed(
          encodeFrame(forward), "refused.jobA", "refused.jobB")));
      daemon.poll(2.0);
    }
    EXPECT_EQ(names::find("refused.job"), names::kInvalidId);
    EXPECT_EQ(names::find("refused.metricB"), names::kInvalidId);
    EXPECT_EQ(names::find("refused.jobB"), names::kInvalidId);
    EXPECT_EQ(daemon.counters().batchesIngested, 2U);
    EXPECT_EQ(daemon.counters().recordsIngested, 1U);
    EXPECT_EQ(daemon.counters().forwardFrames, 1U);
    EXPECT_EQ(daemon.counters().forwardWindows, 0U);
    EXPECT_EQ(daemon.counters().forwardConflicts, 0U);
    EXPECT_EQ(daemon.counters().unnamedDropped, 2U + 1U + 2U);
    const std::vector<SeriesKey> kept = {{"job", 1, "refused.kept"}};
    EXPECT_EQ(daemon.store().keys(), kept);
    EXPECT_EQ(engine.seriesKeys(), kept);
    for (RawSource* source : {&refusedJob, &namedJob, &forwarder}) {
      FrameReader reader;
      const auto frames = receiveFrames(*source->transport, reader);
      ASSERT_EQ(frames.size(), 1U);
      EXPECT_EQ(frames[0].kind, FrameKind::kBatchAck);
      EXPECT_EQ(frames[0].batchSeq, 1U);
    }
    // The refused job's source is registered by its Hello's text, with
    // none of its records.
    const auto sources = daemon.sources();
    ASSERT_EQ(sources.size(), 2U);
    EXPECT_EQ(sources[1].hello.job, "refused.job");
    EXPECT_EQ(sources[1].records, 0U);
  }
  // The WAL logged one batch, of the named job, with its named record.
  std::vector<tsdb::WalBatch> logged;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().starts_with("wal")) {
      const tsdb::WalReadResult wal = tsdb::readWal(entry.path().string());
      logged.insert(logged.end(), wal.batches.begin(), wal.batches.end());
    }
  }
  ASSERT_EQ(logged.size(), 1U);
  EXPECT_EQ(logged[0].job, "job");
  ASSERT_EQ(logged[0].samples.size(), 1U);
  EXPECT_EQ(logged[0].samples[0].metric, "refused.kept");
  std::filesystem::remove_all(dir);
}

// --- per-stage latency attribution (batch stamps, DESIGN.md §10) ------------

namespace {

Frame stampedBatch(std::uint64_t seq, double enqueueAt, double encodeAt,
                   double prevRoundtrip = -1.0) {
  Frame frame;
  frame.kind = FrameKind::kBatch;
  frame.batchSeq = seq;
  frame.timeSeconds = encodeAt;
  frame.enqueueSeconds = enqueueAt;
  frame.encodeSeconds = encodeAt;
  frame.prevRoundtripSeconds = prevRoundtrip;
  frame.records.push_back({encodeAt, names::intern("hwt.0.user_pct"), 50.0});
  return frame;
}

}  // namespace

TEST(AggLatency, StampedBatchesFeedAllFourStageHistograms) {
  trace::MetricsRegistry::instance().reset();
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource source(hub);
  source.hello(0);

  // Batch 1 establishes the clock offset (its own transit reads as 0).
  source.send(stampedBatch(1, 0.90, 1.00));
  daemon.poll(1.05);
  // Batch 2 carries the client's view of batch 1's full round-trip.
  source.send(stampedBatch(2, 1.10, 1.20, 0.25));
  daemon.poll(1.25);
  // Batch 3 transits slower than the fastest observed, so its
  // send->ingest is positive: (1.50 - 0.05) - 1.30 = 0.15.
  source.send(stampedBatch(3, 1.25, 1.30));
  daemon.poll(1.50);

  auto& registry = trace::MetricsRegistry::instance();
  const auto queued =
      registry.latency("zs.agg.daemon.latency.enqueue_to_send_seconds").stats();
  EXPECT_EQ(queued.count, 3U);
  EXPECT_NEAR(queued.sum, 0.10 + 0.10 + 0.05, 1e-9);

  const auto transit =
      registry.latency("zs.agg.daemon.latency.send_to_ingest_seconds").stats();
  EXPECT_EQ(transit.count, 3U);
  EXPECT_NEAR(transit.max, 0.15, 1e-9);

  const auto roundtrip =
      registry.latency("zs.agg.daemon.latency.roundtrip_seconds").stats();
  EXPECT_EQ(roundtrip.count, 1U);
  EXPECT_NEAR(roundtrip.sum, 0.25, 1e-9);

  // No writer: batches are durable at ingest, so the ack flush observes
  // an (approximately zero) ingest->durable sample per batch.
  const auto durable =
      registry.latency("zs.agg.daemon.latency.ingest_to_durable_seconds")
          .stats();
  EXPECT_EQ(durable.count, 3U);

  // ...and the exposition a scrape renders carries all four families.
  const std::string exposition = trace::renderPrometheus(registry.snapshot());
  for (const char* stage : {"enqueue_to_send", "send_to_ingest",
                            "ingest_to_durable", "roundtrip"}) {
    EXPECT_NE(exposition.find(std::string("zs_agg_daemon_latency_") + stage +
                              "_seconds_count"),
              std::string::npos)
        << stage;
  }
  trace::MetricsRegistry::instance().reset();
}

TEST(AggLatency, MinOffsetMappingAbsorbsClientClockSkew) {
  trace::MetricsRegistry::instance().reset();
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  RawSource source(hub);
  source.hello(0);

  // Client clock runs 10s ahead of the daemon.  The first batch pins the
  // offset at -10.0; naively differencing the stamps would report a 10s
  // transit (or a negative one the other way around).
  source.send(stampedBatch(1, 10.90, 11.00));
  daemon.poll(1.00);
  // Second batch encodes at client 11.20 and lands at daemon 1.50 — the
  // candidate offset (-9.7) is worse than the minimum, so the mapping
  // charges the extra 0.3s to transit, not to skew.
  source.send(stampedBatch(2, 11.10, 11.20));
  daemon.poll(1.50);

  const auto transit = trace::MetricsRegistry::instance()
                           .latency("zs.agg.daemon.latency.send_to_ingest_seconds")
                           .stats();
  EXPECT_EQ(transit.count, 2U);
  EXPECT_NEAR(transit.sum, 0.30, 1e-9);
  EXPECT_NEAR(transit.max, 0.30, 1e-9);
  trace::MetricsRegistry::instance().reset();
}
