// Client resilience ("do no harm"): bounded queue, batching by count
// and age, drop counters against an absent or killed daemon, and
// exponential reconnect backoff — all over the deterministic pipe
// transport.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "common/error.hpp"
#include "common/interning.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

Hello rankIdentity(int rank = 0) {
  Hello hello;
  hello.job = "t";
  hello.rank = rank;
  hello.worldSize = 4;
  hello.hostname = "node0000";
  hello.pid = 1000 + rank;
  return hello;
}

std::vector<IdRecord> someRecords(std::size_t n, double t) {
  std::vector<IdRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back({t, names::intern("metric." + std::to_string(i)), 1.0});
  }
  return records;
}

/// Drains the server side into decoded frames.
std::vector<Frame> drainFrames(TransportServer& server, FrameReader& reader) {
  std::vector<Frame> frames;
  for (const auto& delivery : server.poll()) {
    reader.feed(delivery.bytes);
  }
  Frame frame;
  while (reader.next(frame)) {
    frames.push_back(frame);
  }
  return frames;
}

}  // namespace

TEST(AggClient, NullTransportOrZeroBoundsThrow) {
  EXPECT_THROW(Client(nullptr, rankIdentity()), ConfigError);
  PipeHub hub;
  ClientOptions zero;
  zero.batchRecords = 0;
  EXPECT_THROW(Client(hub.makeClientTransport(), rankIdentity(), zero),
               ConfigError);
}

TEST(AggClient, AnnouncesHelloAndBatchesByCount) {
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.batchRecords = 4;
  options.batchAgeSeconds = 100.0;  // only the count trigger fires
  Client client(hub.makeClientTransport(), rankIdentity(3), options);

  client.enqueueIds(someRecords(3, 1.0), 1.0);  // below the batch size
  FrameReader reader;
  auto frames = drainFrames(*server, reader);
  // The client connects lazily: nothing due, nothing on the wire yet.
  ASSERT_TRUE(frames.empty());

  client.enqueueIds(someRecords(1, 1.5), 1.5);  // reaches the batch size
  frames = drainFrames(*server, reader);
  ASSERT_EQ(frames.size(), 2U);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(frames[0].hello.rank, 3);
  EXPECT_EQ(frames[1].kind, FrameKind::kBatch);
  EXPECT_EQ(frames[1].records.size(), 4U);
  EXPECT_EQ(client.counters().recordsSent, 4U);
  EXPECT_EQ(client.counters().batchesSent, 1U);
  EXPECT_EQ(client.counters().recordsDropped, 0U);
}

TEST(AggClient, FlushesByAgeEvenBelowBatchSize) {
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.batchRecords = 100;
  options.batchAgeSeconds = 2.0;
  Client client(hub.makeClientTransport(), rankIdentity(), options);

  client.enqueueIds(someRecords(2, 10.0), 10.0);
  client.pump(11.0);
  FrameReader reader;
  auto frames = drainFrames(*server, reader);
  ASSERT_TRUE(frames.empty());  // records still young, nothing due
  client.pump(12.0);  // oldest record is now 2 s old
  frames = drainFrames(*server, reader);
  ASSERT_EQ(frames.size(), 2U);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(frames[1].kind, FrameKind::kBatch);
  EXPECT_EQ(frames[1].records.size(), 2U);
}

TEST(AggClient, QueueOverflowDropsOldestWithCounter) {
  PipeHub hub;
  hub.setDown(true);  // nothing drains
  ClientOptions options;
  options.maxQueueRecords = 10;
  options.batchRecords = 100;
  Client client(hub.makeClientTransport(), rankIdentity(), options);

  client.enqueueIds(someRecords(25, 1.0), 1.0);
  EXPECT_EQ(client.counters().recordsEnqueued, 25U);
  EXPECT_EQ(client.counters().recordsDropped, 15U);
  EXPECT_EQ(client.counters().recordsSent, 0U);
}

TEST(AggClient, AbsentDaemonOnlyIncrementsDropCounters) {
  // The killed/absent-daemon guarantee: publishing against a dead hub
  // never throws, never blocks, and surfaces only as drop counters.
  PipeHub hub;
  hub.setDown(true);
  Client client(hub.makeClientTransport(), rankIdentity());
  for (int period = 0; period < 50; ++period) {
    client.enqueueIds(someRecords(20, period), static_cast<double>(period));
    client.sendHealth({}, static_cast<double>(period));
  }
  client.goodbye(50.0);
  const auto& c = client.counters();
  EXPECT_EQ(c.recordsEnqueued, 1000U);
  EXPECT_EQ(c.recordsSent, 0U);
  EXPECT_EQ(c.batchesSent, 0U);
  EXPECT_EQ(c.reconnects, 0U);
  // Everything enqueued was eventually dropped (overflow along the way,
  // the final force-flush at goodbye for the rest).
  EXPECT_EQ(c.recordsDropped, 1000U);
  EXPECT_FALSE(client.connected());
}

TEST(AggClient, ReconnectBackoffIsExponentialAndCapped) {
  PipeHub hub;
  hub.setDown(true);
  ClientOptions options;
  options.reconnectBackoffSeconds = 1.0;
  options.reconnectBackoffCapSeconds = 4.0;
  options.batchAgeSeconds = 0.0;  // every pump wants to flush
  options.reconnectJitterFraction = 0.0;  // exact schedule below
  Client client(hub.makeClientTransport(), rankIdentity(), options);

  // t=0: connect fails -> next attempt at t=1.  Attempts before then
  // must not touch the transport (we can't observe the transport, but
  // the backoff is visible through when drops resume after recovery).
  client.enqueueIds(someRecords(1, 0.0), 0.0);
  // Failed connects at t=1 (backoff 2), t=3 (backoff 4), t=7 (capped 4).
  for (double t : {0.5, 1.0, 3.0, 7.0}) {
    client.pump(t);
  }
  hub.setDown(false);
  auto server = hub.makeServer();
  client.pump(10.9);  // still backing off: next attempt due at t=11
  FrameReader reader;
  EXPECT_TRUE(drainFrames(*server, reader).empty());
  client.pump(11.0);  // backoff expired: connects and flushes
  const auto frames = drainFrames(*server, reader);
  ASSERT_EQ(frames.size(), 2U);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(frames[1].kind, FrameKind::kBatch);
}

TEST(AggClient, DaemonRestartTriggersReannounceAndReconnectCounter) {
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.batchRecords = 1;  // flush every record immediately
  options.reconnectBackoffSeconds = 1.0;
  Client client(hub.makeClientTransport(), rankIdentity(), options);

  client.enqueueIds(someRecords(1, 0.0), 0.0);
  FrameReader reader1;
  EXPECT_EQ(drainFrames(*server, reader1).size(), 2U);  // Hello + batch

  hub.setDown(true);  // daemon dies, severing the connection
  // Connect is refused, so the record waits in the bounded queue rather
  // than being dropped — only a failed send loses records.
  client.enqueueIds(someRecords(1, 1.0), 1.0);
  EXPECT_EQ(client.counters().recordsSent, 1U);
  EXPECT_EQ(client.counters().recordsDropped, 0U);

  hub.setDown(false);  // daemon restarts
  client.enqueueIds(someRecords(1, 5.0), 5.0);  // past backoff: reconnects
  FrameReader reader2;
  const auto frames = drainFrames(*server, reader2);
  ASSERT_EQ(frames.size(), 3U);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);  // re-announced
  EXPECT_EQ(frames[1].kind, FrameKind::kBatch);  // queued during the outage
  EXPECT_EQ(frames[2].kind, FrameKind::kBatch);
  EXPECT_EQ(client.counters().reconnects, 1U);
  EXPECT_EQ(client.counters().recordsDropped, 0U);
}

TEST(AggClient, GoodbyeFlushesQueueThenSignalsDeparture) {
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.batchRecords = 100;
  options.batchAgeSeconds = 100.0;  // nothing flushes on its own
  Client client(hub.makeClientTransport(), rankIdentity(), options);
  client.enqueueIds(someRecords(5, 1.0), 1.0);
  client.goodbye(2.0);
  FrameReader reader;
  const auto frames = drainFrames(*server, reader);
  ASSERT_EQ(frames.size(), 3U);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(frames[1].kind, FrameKind::kBatch);
  EXPECT_EQ(frames[1].records.size(), 5U);
  EXPECT_EQ(frames[2].kind, FrameKind::kGoodbye);
  EXPECT_FALSE(client.connected());
}

// --- degradation ladder, acks, heartbeats ----------------------------------

namespace {

/// Crafts a daemon-side kBatchAck (seq 0 = pressure-only heartbeat ack).
std::string ackBytes(std::uint64_t seq, PressureLevel pressure) {
  Frame ack;
  ack.kind = FrameKind::kBatchAck;
  ack.batchSeq = seq;
  ack.pressure = pressure;
  return encodeFrame(ack);
}

}  // namespace

TEST(AggLadder, OccupancyClimbsTheLadderAndCalmPumpsDescend) {
  PipeHub hub;
  hub.setDown(true);  // nothing drains: occupancy is under our control
  ClientOptions options;
  options.maxQueueRecords = 10;
  options.batchRecords = 100;
  options.batchAgeSeconds = 0.1;  // flush as soon as a daemon appears
  options.reconnectBackoffSeconds = 0.01;
  options.reconnectJitterFraction = 0.0;
  options.deescalateAfterPumps = 3;
  Client client(hub.makeClientTransport(), rankIdentity(), options);
  EXPECT_EQ(client.level(), DegradeLevel::kFull);

  // 8/10 queued = occupancy 0.8: the first pump escalates to kCoarse.
  client.enqueueIds(someRecords(8, 1.0), 1.0);
  EXPECT_EQ(client.level(), DegradeLevel::kCoarse);
  EXPECT_EQ(client.counters().recordsDropped, 0U);

  // At kCoarse further records fold into rollups instead of queueing —
  // degraded, not dropped.
  client.enqueueIds(someRecords(8, 2.0), 2.0);
  EXPECT_GT(client.counters().recordsCoarsened, 0U);
  EXPECT_EQ(client.counters().recordsDropped, 0U);

  // Occupancy stays pinned; after the two-pump dwell the ladder exhausts
  // into kEssential, and only then do records shed.
  client.enqueueIds(someRecords(8, 3.0), 3.0);
  EXPECT_EQ(client.level(), DegradeLevel::kEssential);
  const auto droppedAtEssential = client.counters().recordsDropped;
  client.enqueueIds(someRecords(8, 4.0), 4.0);
  EXPECT_GT(client.counters().recordsDropped, droppedAtEssential);

  // Daemon comes back: the queue drains, and a run of calm pumps walks
  // the ladder back down one level at a time.
  hub.setDown(false);
  auto server = hub.makeServer();
  double t = 5.0;
  for (int pump = 0; pump < 4 && client.level() == DegradeLevel::kEssential;
       ++pump) {
    client.pump(t += 1.0);
  }
  EXPECT_EQ(client.level(), DegradeLevel::kCoarse);
  for (int pump = 0; pump < 4 && client.level() == DegradeLevel::kCoarse;
       ++pump) {
    client.pump(t += 1.0);
  }
  EXPECT_EQ(client.level(), DegradeLevel::kFull);
  EXPECT_GE(client.counters().degradeTransitions, 4U);

  // Everything the ladder folded eventually reached the wire as
  // min/avg/max triples.
  FrameReader reader;
  std::size_t wireRecords = 0;
  for (const Frame& frame : drainFrames(*server, reader)) {
    if (frame.kind == FrameKind::kBatch) {
      wireRecords += frame.records.size();
    }
  }
  EXPECT_GE(wireRecords, 8U);  // the original full-resolution backlog
}

TEST(AggLadder, CoarseWindowEmitsMinAvgMaxPerMetric) {
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.maxQueueRecords = 4;  // tiny: one 4-record burst pins occupancy
  options.batchRecords = 1000;
  options.batchAgeSeconds = 0.0;  // flush every pump
  options.coarsenWindowSeconds = 2.0;
  Client client(hub.makeClientTransport(), rankIdentity(), options);

  // Pin the queue so the ladder steps to kCoarse, then stream one metric
  // through the window.
  std::vector<IdRecord> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back({1.0, names::intern("pinned." + std::to_string(i)), 0.0});
  }
  client.enqueueIds(burst, 1.0);
  ASSERT_EQ(client.level(), DegradeLevel::kCoarse);

  for (int i = 0; i < 5; ++i) {
    client.enqueueIds({{1.0 + 0.1 * i, names::intern("load"), 10.0 * i}},
                      1.0 + 0.1 * i);
  }
  EXPECT_EQ(client.counters().recordsCoarsened, 5U);
  client.pump(3.5);  // past the window: min/avg/max hit the queue + wire

  FrameReader reader;
  double minSeen = -1.0, avgSeen = -1.0, maxSeen = -1.0;
  for (const Frame& frame : drainFrames(*server, reader)) {
    if (frame.kind != FrameKind::kBatch) {
      continue;
    }
    for (const IdRecord& r : frame.records) {
      if (names::lookup(r.name) == "load") {
        avgSeen = r.value;
      } else if (names::lookup(r.name) == "load.min") {
        minSeen = r.value;
      } else if (names::lookup(r.name) == "load.max") {
        maxSeen = r.value;
      }
    }
  }
  EXPECT_DOUBLE_EQ(minSeen, 0.0);
  EXPECT_DOUBLE_EQ(avgSeen, 20.0);  // mean of 0,10,20,30,40
  EXPECT_DOUBLE_EQ(maxSeen, 40.0);
  EXPECT_EQ(client.counters().coarseRecordsEmitted, 3U);
}

TEST(AggLadder, AckedPressureForcesCoarseAndStalenessReleases) {
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.batchRecords = 1;  // flush immediately -> connected
  options.pressureStaleSeconds = 3.0;
  options.deescalateAfterPumps = 2;
  Client client(hub.makeClientTransport(), rankIdentity(), options);
  client.enqueueIds(someRecords(1, 1.0), 1.0);

  FrameReader reader;
  std::uint64_t connection = 0;
  for (const auto& delivery : server->poll()) {
    connection = delivery.connection;
  }
  ASSERT_NE(connection, 0U);

  // A pressure-only ack (seq 0, daemon answering a heartbeat) coarsens
  // the client even though its own queue is empty.
  ASSERT_TRUE(server->send(connection, ackBytes(0, PressureLevel::kElevated)));
  client.pump(2.0);
  EXPECT_EQ(client.level(), DegradeLevel::kCoarse);
  EXPECT_EQ(client.pressure(), PressureLevel::kElevated);

  // Remote pressure alone never exhausts the ladder.
  client.pump(2.5);
  client.pump(2.6);
  EXPECT_EQ(client.level(), DegradeLevel::kCoarse);

  // The daemon goes silent: once the pressure sample is stale it stops
  // pinning the ladder, and calm pumps walk back to kFull.
  client.pump(6.0);  // > pressureStaleSeconds after the ack
  client.pump(6.1);
  client.pump(6.2);
  EXPECT_EQ(client.level(), DegradeLevel::kFull);
}

TEST(AggLadder, CumulativeAcksSettleEverySequenceUpToTheAckedOne) {
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.batchRecords = 1;  // one batch per enqueue: seqs 1, 2, 3
  Client client(hub.makeClientTransport(), rankIdentity(), options);
  for (int i = 0; i < 3; ++i) {
    client.enqueueIds(someRecords(1, 1.0 + i), 1.0 + i);
  }
  FrameReader reader;
  std::uint64_t connection = 0;
  std::vector<std::uint64_t> seqs;
  for (const auto& delivery : server->poll()) {
    connection = delivery.connection;
    reader.feed(delivery.bytes);
  }
  Frame frame;
  while (reader.next(frame)) {
    if (frame.kind == FrameKind::kBatch) {
      seqs.push_back(frame.batchSeq);
    }
  }
  ASSERT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));

  // One cumulative ack for seq 3 settles all three in-flight batches.
  ASSERT_TRUE(server->send(connection, ackBytes(3, PressureLevel::kOk)));
  client.pump(5.0);
  EXPECT_EQ(client.counters().acksReceived, 1U);
  EXPECT_EQ(client.counters().recordsAcked, 3U);
}

TEST(AggLadder, GarbageFromTheDaemonDropsTheConnectionNotTheClient) {
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.batchRecords = 1;
  options.reconnectBackoffSeconds = 0.5;
  options.reconnectJitterFraction = 0.0;
  Client client(hub.makeClientTransport(), rankIdentity(), options);
  client.enqueueIds(someRecords(1, 1.0), 1.0);
  std::uint64_t connection = 0;
  for (const auto& delivery : server->poll()) {
    connection = delivery.connection;
  }
  ASSERT_NE(connection, 0U);

  ASSERT_TRUE(server->send(connection, "\x07garbage-not-a-frame"));
  client.pump(2.0);  // parse error -> connection dropped, no throw
  EXPECT_FALSE(client.connected());

  // The client reconnects and resumes on the next due pump.
  client.enqueueIds(someRecords(1, 3.0), 3.0);
  FrameReader reader;
  bool reHello = false;
  for (const Frame& frame : drainFrames(*server, reader)) {
    reHello = reHello || frame.kind == FrameKind::kHello;
  }
  EXPECT_TRUE(reHello);
  EXPECT_GE(client.counters().reconnects, 1U);
}

TEST(AggClient, IdleHeartbeatsFlowWhenEnabled) {
  PipeHub hub;
  auto server = hub.makeServer();
  ClientOptions options;
  options.heartbeatSeconds = 2.0;
  options.batchRecords = 1000;
  options.batchAgeSeconds = 1000.0;  // nothing ever flushes
  Client client(hub.makeClientTransport(), rankIdentity(), options);
  client.sendHealth({}, 0.0);  // connects; lastSend = 0

  client.pump(1.0);  // idle but not for long enough
  client.pump(2.0);  // 2 s idle -> heartbeat
  client.pump(2.5);
  client.pump(4.0);  // 2 s after the last heartbeat -> another
  EXPECT_EQ(client.counters().heartbeatsSent, 2U);

  FrameReader reader;
  int heartbeats = 0;
  for (const Frame& frame : drainFrames(*server, reader)) {
    heartbeats += frame.kind == FrameKind::kHeartbeat ? 1 : 0;
  }
  EXPECT_EQ(heartbeats, 2);
}

TEST(AggClient, ReconnectJitterStaysBoundedAndDecorrelatesSeeds) {
  // With jitter fraction f, the first reconnect delay must land in
  // [b*(1-f), b*(1+f)] — and different seeds must land at different
  // points (the anti-stampede property).
  auto firstReconnectTime = [](std::uint64_t seed) {
    PipeHub hub;
    hub.setDown(true);
    ClientOptions options;
    options.reconnectBackoffSeconds = 1.0;
    options.reconnectJitterFraction = 0.5;
    options.jitterSeed = seed;
    options.batchAgeSeconds = 0.0;
    Client client(hub.makeClientTransport(), rankIdentity(), options);
    client.enqueueIds(someRecords(1, 0.0), 0.0);  // connect fails at t=0
    hub.setDown(false);
    auto server = hub.makeServer();
    FrameReader reader;
    for (double t = 0.0; t <= 2.0; t += 0.01) {
      client.pump(t);
      if (!drainFrames(*server, reader).empty()) {
        return t;
      }
    }
    return -1.0;
  };
  const double a = firstReconnectTime(1);
  const double b = firstReconnectTime(2);
  ASSERT_GE(a, 0.5 - 0.011);
  ASSERT_LE(a, 1.5 + 0.011);
  ASSERT_GE(b, 0.5 - 0.011);
  ASSERT_LE(b, 1.5 + 0.011);
  EXPECT_NE(a, b) << "two seeds picked the identical reconnect instant";
  // Determinism: the same seed reproduces the same instant exactly.
  EXPECT_DOUBLE_EQ(a, firstReconnectTime(1));
}
