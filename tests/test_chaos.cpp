// Overload and fault chaos matrix (the robustness acceptance for the
// backpressure/degradation pipeline):
//   * FaultInjectingTransport — spec grammar and each fault kind's
//     behavior over the pipe transport
//   * TsdbWriter — bounded queue, group commit, durable-ticket frontier,
//     threaded drain
//   * TcpTransport connect timeouts (ZS_AGG_TIMEOUT_MS)
//   * ClusterJob chaos scenarios, all in lockstep virtual time:
//     daemon hard-kill + restart with zero acked-record loss, a slow
//     daemon that coarsens clients without dropping, and a flapping
//     link whose outcome is bit-for-bit deterministic under a fixed
//     fault seed.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/faulttransport.hpp"
#include "aggregator/tcp.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "aggregator/writer.hpp"
#include "cluster/job.hpp"
#include "common/error.hpp"
#include "common/interning.hpp"
#include "topology/presets.hpp"
#include "tsdb/engine.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

namespace fs = std::filesystem;

class ChaosDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("zs_chaos_test_") + info->name() + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
    dir_ = (root_ / "data").string();
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  std::string dir_;
};

}  // namespace

// --- FaultInjectingTransport -------------------------------------------------

TEST(FaultTransport, SpecGrammarMirrorsProcfsFaultSpec) {
  const auto rules = parseTransportFaultSpec(
      "send:disconnect@5, CONNECT:fail@1..3, recv:short@4..");
  ASSERT_EQ(rules.size(), 3U);
  EXPECT_EQ(rules[0].site, TransportFaultSite::kSend);
  EXPECT_EQ(rules[0].kind, TransportFaultKind::kDisconnect);
  EXPECT_TRUE(rules[0].covers(5) && !rules[0].covers(4) && !rules[0].covers(6));
  EXPECT_EQ(rules[1].site, TransportFaultSite::kConnect);
  EXPECT_TRUE(rules[1].covers(1) && rules[1].covers(3) && !rules[1].covers(4));
  EXPECT_EQ(rules[2].site, TransportFaultSite::kReceive);
  EXPECT_FALSE(rules[2].lastCall.has_value());  // sticky
  EXPECT_TRUE(rules[2].covers(40000));

  EXPECT_THROW(parseTransportFaultSpec("send:bogus@1"), ConfigError);
  EXPECT_THROW(parseTransportFaultSpec("nowhere:fail@1"), ConfigError);
  EXPECT_THROW(parseTransportFaultSpec("send:fail@0"), ConfigError);
  EXPECT_THROW(parseTransportFaultSpec("send:fail"), ConfigError);
  // Site/kind compatibility: partial and delay are send-side faults,
  // short is receive-side.
  EXPECT_THROW(parseTransportFaultSpec("recv:partial@1"), ConfigError);
  EXPECT_THROW(parseTransportFaultSpec("connect:delay@1"), ConfigError);
  EXPECT_THROW(parseTransportFaultSpec("send:short@1"), ConfigError);
}

TEST(FaultTransport, ConnectFaultsFailTheWindowThenRecover) {
  PipeHub hub;
  auto server = hub.makeServer();
  FaultInjectingTransport transport(hub.makeClientTransport(),
                                    parseTransportFaultSpec("connect:fail@1..2"));
  EXPECT_FALSE(transport.connect());
  EXPECT_FALSE(transport.connect());
  EXPECT_TRUE(transport.connect());  // window over
  EXPECT_EQ(transport.callCount(TransportFaultSite::kConnect), 3U);
  EXPECT_EQ(transport.injectedCount(TransportFaultSite::kConnect), 2U);
}

TEST(FaultTransport, PartialSendTearsTheFrameAndCloses) {
  PipeHub hub;
  auto server = hub.makeServer();
  FaultInjectingTransport transport(hub.makeClientTransport(),
                                    parseTransportFaultSpec("send:partial@2"));
  ASSERT_TRUE(transport.connect());
  ASSERT_TRUE(transport.send(std::string(16, 'a')));
  EXPECT_FALSE(transport.send(std::string(16, 'b')));  // torn mid-frame
  EXPECT_FALSE(transport.connected());

  std::string wire;
  for (const auto& delivery : server->poll()) {
    wire += delivery.bytes;
  }
  EXPECT_EQ(wire, std::string(16, 'a') + std::string(8, 'b'));
}

TEST(FaultTransport, DelayedSendArrivesBeforeTheNextCleanSend) {
  PipeHub hub;
  auto server = hub.makeServer();
  FaultInjectingTransport transport(hub.makeClientTransport(),
                                    parseTransportFaultSpec("send:delay@1"));
  ASSERT_TRUE(transport.connect());
  EXPECT_TRUE(transport.send("AAA"));  // buffered, not on the wire yet
  std::string wire;
  for (const auto& delivery : server->poll()) {
    wire += delivery.bytes;
  }
  EXPECT_EQ(wire, "");
  EXPECT_TRUE(transport.send("BBB"));  // releases the delayed bytes first
  for (const auto& delivery : server->poll()) {
    wire += delivery.bytes;
  }
  EXPECT_EQ(wire, "AAABBB");  // order preserved: delay, not reorder
}

TEST(FaultTransport, ShortReceiveSplitsAcrossCalls) {
  PipeHub hub;
  auto server = hub.makeServer();
  FaultInjectingTransport transport(hub.makeClientTransport(),
                                    parseTransportFaultSpec("recv:short@1"));
  ASSERT_TRUE(transport.connect());
  ASSERT_TRUE(transport.send("x"));  // announce so the server sees the conn
  std::uint64_t connection = 0;
  for (const auto& delivery : server->poll()) {
    connection = delivery.connection;
  }
  ASSERT_TRUE(server->send(connection, "0123456789"));

  std::string got;
  EXPECT_TRUE(transport.receive(got));
  EXPECT_EQ(got, "01234");  // half now...
  EXPECT_TRUE(transport.receive(got));
  EXPECT_EQ(got, "0123456789");  // ...the rest on the next call
}

TEST(FaultTransport, DisconnectFaultClosesAndClientMachineryRecovers) {
  // End-to-end over the real Client: a mid-stream disconnect fault is
  // survived with a reconnect, and every record still reaches the wire.
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.batchRecords = 1;
  options.reconnectBackoffSeconds = 0.1;
  options.reconnectJitterFraction = 0.0;
  Hello hello;
  hello.job = "faulted";
  hello.rank = 0;
  hello.worldSize = 1;
  hello.hostname = "node0000";
  hello.pid = 7;
  Client client(std::make_unique<FaultInjectingTransport>(
                    hub.makeClientTransport(),
                    parseTransportFaultSpec("send:disconnect@3")),
                hello, options);
  double t = 0.0;
  for (int i = 0; i < 8; ++i) {
    client.enqueueIds({{t, names::intern("m"), static_cast<double>(i)}}, t);
    t += 1.0;
  }
  EXPECT_GE(client.counters().sendFailures, 1U);
  EXPECT_GE(client.counters().reconnects, 1U);
  EXPECT_EQ(client.counters().recordsDropped, 0U);

  FrameReader reader;
  std::size_t records = 0;
  for (const auto& delivery : server->poll()) {
    reader.feed(delivery.bytes);
  }
  Frame frame;
  while (reader.next(frame)) {
    if (frame.kind == FrameKind::kBatch) {
      records += frame.records.size();
    }
  }
  EXPECT_EQ(records, 8U);  // the faulted batch was retained and resent
}

// --- TsdbWriter ---------------------------------------------------------------

/// Samples as the daemon submits them: id records, each metric interned.
std::vector<IdRecord> idRecords(const std::vector<tsdb::Sample>& samples) {
  std::vector<IdRecord> records;
  tsdb::internSamples(samples, records);
  return records;
}

TEST_F(ChaosDirTest, SyncWriterGroupCommitsAndAdvancesTheTicket) {
  tsdb::Engine engine(dir_, {});
  WriterOptions options;
  options.maxBatchesPerPump = 8;
  TsdbWriter writer(&engine, options);

  const auto samples = idRecords({{1.0, "cpu.util", 10.0}});
  const names::Id job = names::intern("job");
  const auto t1 = writer.submit(job, 0, samples);
  const auto t2 = writer.submit(job, 0, samples);
  const auto t3 = writer.submit(job, 1, samples);
  ASSERT_TRUE(t1 && t2 && t3);
  EXPECT_LT(*t1, *t2);
  EXPECT_LT(*t2, *t3);
  EXPECT_EQ(writer.writtenTicket(), 0U);
  EXPECT_EQ(writer.pending(), 3U);

  writer.pump();
  EXPECT_EQ(writer.pending(), 0U);
  EXPECT_EQ(writer.writtenTicket(), *t3);
  const auto counters = writer.counters();
  EXPECT_EQ(counters.batchesWritten, 3U);
  EXPECT_EQ(counters.samplesWritten, 3U);
  // The two adjacent same-source batches coalesced into one append.
  EXPECT_EQ(counters.groupCommits, 1U);
  EXPECT_EQ(engine.counters().batchesAppended, 2U);
}

TEST_F(ChaosDirTest, FullWriterQueueRejectsInsteadOfBlocking) {
  tsdb::Engine engine(dir_, {});
  WriterOptions options;
  options.maxPendingBatches = 2;
  TsdbWriter writer(&engine, options);
  const auto samples = idRecords({{1.0, "m", 1.0}});
  const names::Id job = names::intern("job");
  EXPECT_TRUE(writer.submit(job, 0, samples).has_value());
  EXPECT_TRUE(writer.submit(job, 0, samples).has_value());
  EXPECT_FALSE(writer.hasSpace());
  EXPECT_FALSE(writer.submit(job, 0, samples).has_value());
  EXPECT_EQ(writer.counters().submitRejected, 1U);
  EXPECT_DOUBLE_EQ(writer.occupancy(), 1.0);

  writer.pump();
  EXPECT_TRUE(writer.hasSpace());
  EXPECT_TRUE(writer.submit(job, 0, samples).has_value());
}

TEST_F(ChaosDirTest, ThreadedWriterDrainsOnFlushAndShutdown) {
  tsdb::Engine engine(dir_, {});
  WriterOptions options;
  options.threaded = true;
  {
    TsdbWriter writer(&engine, options);
    ASSERT_TRUE(writer.threaded());
    const names::Id job = names::intern("job");
    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
      const auto samples =
          idRecords({{1.0 + 0.1 * i, "cpu.util", static_cast<double>(i)}});
      const auto ticket = writer.submit(job, i % 4, samples);
      ASSERT_TRUE(ticket.has_value()) << i;
      last = *ticket;
    }
    writer.flush();
    EXPECT_EQ(writer.pending(), 0U);
    EXPECT_EQ(writer.writtenTicket(), last);
    EXPECT_EQ(writer.counters().samplesWritten, 50U);
    // The owner's read path serializes against the worker via the
    // engine mutex.
    std::lock_guard<std::mutex> lock(writer.engineMutex());
    EXPECT_EQ(engine.counters().samplesAppended, 50U);
  }
}

// --- TcpTransport timeouts ----------------------------------------------------

TEST(AggTcpTimeout, TimedConnectSucceedsAgainstALiveServer) {
  TcpServer server(0);
  TcpTransport transport("127.0.0.1", server.port(), /*timeoutMs=*/500);
  EXPECT_TRUE(transport.connect());
  EXPECT_TRUE(transport.connected());
  EXPECT_TRUE(transport.send("hello"));
  transport.close();
}

TEST(AggTcpTimeout, TimedConnectFailsFastAgainstAClosedPort) {
  int port = 0;
  {
    TcpServer server(0);  // grab a port the kernel considered free...
    port = server.port();
  }  // ...and release it: connects are now refused
  TcpTransport transport("127.0.0.1", port, /*timeoutMs=*/250);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(transport.connect());
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 2.0);  // refused or timed out, never a hang
}

// --- ClusterJob chaos matrix --------------------------------------------------

namespace {

/// One lockstep iteration of ClusterJob::run() is one virtual second,
/// and each virtual second covers ~10 of these steps — so `steps = 300`
/// is a ~30-virtual-second job.  Chaos scenarios need tens of seconds
/// for backlog, pressure, and reconnect backoff to actually develop.
cluster::ClusterJobConfig chaosJobConfig(std::uint64_t steps) {
  cluster::ClusterJobConfig cfg;
  cfg.nodes = 1;
  cfg.ranksPerNode = 2;
  cfg.cpusPerTask = 7;
  cfg.workload.ompThreads = 4;
  cfg.workload.steps = steps;
  cfg.workload.workPerStep = 10;
  return cfg;
}

/// Records durably held by the engine for one rank: the sum of rollup
/// counts across all of that rank's series.
std::uint64_t engineRecordsForRank(const tsdb::Engine& engine,
                                   const std::string& job, int rank,
                                   double horizon) {
  std::uint64_t records = 0;
  for (const auto& key : engine.seriesKeys()) {
    if (key.jobName() != job || key.rank != rank) {
      continue;
    }
    for (const auto& w : engine.range(key, 0.0, horizon)) {
      records += w.rollup.count;
    }
  }
  return records;
}

}  // namespace

TEST_F(ChaosDirTest, DaemonKillAndRestartLosesNoAckedRecord) {
  // The tentpole invariant: an ack means "durable".  Hard-kill the
  // daemon (and its engine) mid-stream, restart over the same data dir,
  // run to completion — every record a client counted as acked must be
  // present in the recovered engine.
  const auto topo = topology::presets::frontier();
  cluster::ClusterJob job(topo, chaosJobConfig(250));
  ClientOptions clientOptions;
  clientOptions.heartbeatSeconds = 2.0;  // exercise pressure-only acks
  job.setAggClientOptions(clientOptions);
  tsdb::EngineOptions engineOptions;
  engineOptions.fsync = tsdb::FsyncPolicy::kOff;
  job.enableAggregation("chaos", {}, dir_, engineOptions);

  job.run(4.0);
  job.crashAggregator();
  job.run(3.0);  // clients ride out the outage: queue + backoff
  job.restartAggregation();
  job.run(900.0);

  ASSERT_NE(job.aggEngine(), nullptr);
  const double horizon = job.runtimeSeconds() + 10.0;
  std::uint64_t totalAcked = 0;
  for (int rank = 0; rank < job.totalRanks(); ++rank) {
    const auto& c = job.aggClient(rank).counters();
    totalAcked += c.recordsAcked;
    // Zero acked-record loss: the engine's durable count dominates the
    // client's acked count (the engine also holds delivered-but-unacked
    // records, so >=, never ==).
    EXPECT_GE(engineRecordsForRank(*job.aggEngine(), "chaos", rank, horizon),
              c.recordsAcked)
        << rank;
    EXPECT_EQ(c.recordsDropped, 0U) << rank;  // outage was queued, not shed
    EXPECT_GE(c.reconnects, 1U) << rank;
  }
  EXPECT_GT(totalAcked, 0U) << "acks never flowed; the invariant was vacuous";
  EXPECT_GT(job.aggregatorDaemon()->counters().acksSent, 0U);
}

TEST(ChaosMatrix, SlowDaemonCoarsensClientsInsteadOfDropping) {
  // A daemon that can only afford one batch per poll: its admission
  // queue fills, pressure rides back on every ack, and the clients step
  // to kCoarse — records_dropped stays zero while records_coarsened
  // grows (the ISSUE acceptance invariant).
  const auto topo = topology::presets::frontier();
  cluster::ClusterJob job(topo, chaosJobConfig(300));
  DaemonOptions daemonOptions;
  daemonOptions.maxBatchesPerPoll = 1;
  daemonOptions.maxPendingBatches = 8;
  // Any standing backlog at all reads as pressure: the clients flush
  // roughly one batch every other poll, so the queue hovers at one or
  // two entries rather than filling.
  daemonOptions.elevatedQueueFraction = 0.05;
  job.setAggDaemonOptions(daemonOptions);
  job.enableAggregation("slow");
  job.run();

  std::uint64_t coarsened = 0;
  std::uint64_t acked = 0;
  for (int rank = 0; rank < job.totalRanks(); ++rank) {
    const auto& c = job.aggClient(rank).counters();
    coarsened += c.recordsCoarsened;
    acked += c.recordsAcked;
    EXPECT_EQ(c.recordsDropped, 0U) << rank;
    EXPECT_GT(c.acksReceived, 0U) << rank;
  }
  EXPECT_GT(coarsened, 0U);
  const auto& d = job.aggregatorDaemon()->counters();
  EXPECT_GT(d.batchesDeferred, 0U);
  // Zero acked loss: no client counts a record acked that never landed.
  EXPECT_LE(acked, d.recordsIngested);
  EXPECT_EQ(d.recordsIngested,
            [&job] {
              std::uint64_t sent = 0;
              for (int rank = 0; rank < job.totalRanks(); ++rank) {
                sent += job.aggClient(rank).counters().recordsSent;
              }
              return sent;
            }())
      << "the daemon dropped records a client counted as sent";
}

TEST(ChaosMatrix, FlappingLinkIsSurvivedDeterministically) {
  // A link that tears frames mid-send and refuses reconnects for a
  // while.  Two runs with the same seed must agree counter-for-counter
  // (the chaos matrix is reproducible), and the job must finish with
  // the daemon having ingested from every rank.
  struct Outcome {
    std::vector<std::uint64_t> perRank;
    std::uint64_t ingested = 0;
    std::uint64_t decodeErrors = 0;

    bool operator==(const Outcome&) const = default;
  };
  auto run = [](std::uint64_t seed) {
    const auto topo = topology::presets::frontier();
    cluster::ClusterJob job(topo, chaosJobConfig(400));
    ClientOptions clientOptions;
    clientOptions.reconnectBackoffSeconds = 0.5;
    job.setAggClientOptions(clientOptions);
    job.setAggFaultSpec("send:partial@7,connect:fail@2..4,send:disconnect@25",
                        seed);
    job.enableAggregation("flap");
    job.run();

    Outcome outcome;
    for (int rank = 0; rank < job.totalRanks(); ++rank) {
      const auto& c = job.aggClient(rank).counters();
      outcome.perRank.push_back(c.recordsEnqueued);
      outcome.perRank.push_back(c.recordsSent);
      outcome.perRank.push_back(c.sendFailures);
      outcome.perRank.push_back(c.reconnects);
      outcome.perRank.push_back(c.recordsDropped);
      outcome.perRank.push_back(c.recordsAcked);
      EXPECT_GE(c.sendFailures, 1U) << rank;   // the faults actually fired
      EXPECT_GE(c.reconnects, 1U) << rank;     // and were recovered from
      EXPECT_NE(job.aggFaults(rank), nullptr);
      if (const auto* faults = job.aggFaults(rank)) {
        EXPECT_GT(faults->totalInjected(), 0U) << rank;
      }
    }
    outcome.ingested = job.aggregatorDaemon()->counters().recordsIngested;
    outcome.decodeErrors = job.aggregatorDaemon()->counters().decodeErrors;
    EXPECT_TRUE(job.aggregatorDaemon()->allDeparted());
    return outcome;
  };
  const Outcome first = run(11);
  const Outcome second = run(11);
  EXPECT_EQ(first, second) << "same fault seed, different outcome";
  EXPECT_GT(first.ingested, 0U);
}

TEST_F(ChaosDirTest, AsyncWriterBackloggedDaemonStillAcksDurablyOnly) {
  // Slow store behind the daemon: a tiny writer queue forces the
  // admission queue to wait, pressure rises, but acks only ever cover
  // batches past the writer's durable frontier.
  const auto topo = topology::presets::frontier();
  auto cfg = chaosJobConfig(300);
  // Four ranks flush roughly two batches per poll; a writer that can
  // only retire one append per poll is therefore a real bottleneck.
  cfg.ranksPerNode = 4;
  cluster::ClusterJob job(topo, cfg);
  WriterOptions writerOptions;
  writerOptions.maxPendingBatches = 4;
  writerOptions.maxBatchesPerPump = 1;  // one engine append per poll
  job.setAggWriterOptions(writerOptions);
  tsdb::EngineOptions engineOptions;
  engineOptions.fsync = tsdb::FsyncPolicy::kOff;
  job.enableAggregation("slowdisk", {}, dir_, engineOptions);
  job.run();

  ASSERT_NE(job.aggWriter(), nullptr);
  EXPECT_EQ(job.aggWriter()->pending(), 0U);  // drainBacklog emptied it
  const double horizon = job.runtimeSeconds() + 10.0;
  for (int rank = 0; rank < job.totalRanks(); ++rank) {
    const auto& c = job.aggClient(rank).counters();
    EXPECT_GE(engineRecordsForRank(*job.aggEngine(), "slowdisk", rank,
                                   horizon),
              c.recordsAcked)
        << rank;
  }
  const auto& d = job.aggregatorDaemon()->counters();
  EXPECT_GT(d.acksSent, 0U);
  // The writer was genuinely the bottleneck at least once.
  EXPECT_GT(d.batchesDeferred + d.writerBypasses, 0U);
}
