// Wire protocol: roundtrips, incremental decoding, and the strictness
// guarantees the daemon relies on (truncation, version mismatch, and
// hostile length prefixes all throw instead of guessing).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "aggregator/wire.hpp"
#include "common/error.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

Frame sampleHello() {
  Frame frame;
  frame.kind = FrameKind::kHello;
  frame.hello.job = "job-42";
  frame.hello.rank = 3;
  frame.hello.worldSize = 8;
  frame.hello.hostname = "node0003";
  frame.hello.pid = 51334;
  return frame;
}

Frame sampleBatch() {
  Frame frame;
  frame.kind = FrameKind::kBatch;
  frame.timeSeconds = 12.5;
  frame.records.push_back({12.5, "hwt.0.user_pct", 87.5});
  frame.records.push_back({12.5, "lwp.51334.utime_delta", 99.0});
  frame.records.push_back({12.5, "mem.process_rss_kb", 1.25e6});
  return frame;
}

}  // namespace

TEST(AggWire, HelloRoundTrip) {
  const Frame in = sampleHello();
  const Frame out = decodeFrame(encodeFrame(in));
  EXPECT_EQ(out.kind, FrameKind::kHello);
  EXPECT_EQ(out.hello, in.hello);
}

TEST(AggWire, BatchRoundTripPreservesRecordsAndTime) {
  const Frame in = sampleBatch();
  const Frame out = decodeFrame(encodeFrame(in));
  EXPECT_EQ(out.kind, FrameKind::kBatch);
  EXPECT_DOUBLE_EQ(out.timeSeconds, 12.5);
  EXPECT_EQ(out.records, in.records);
}

TEST(AggWire, HealthHeartbeatGoodbyeAndQueryRoundTrip) {
  Frame health;
  health.kind = FrameKind::kHealth;
  health.timeSeconds = 3.0;
  health.health = {100, 5, 2, 1, 3};
  EXPECT_EQ(decodeFrame(encodeFrame(health)).health, health.health);

  Frame heartbeat;
  heartbeat.kind = FrameKind::kHeartbeat;
  heartbeat.timeSeconds = 4.5;
  EXPECT_DOUBLE_EQ(decodeFrame(encodeFrame(heartbeat)).timeSeconds, 4.5);

  Frame goodbye;
  goodbye.kind = FrameKind::kGoodbye;
  goodbye.timeSeconds = 9.0;
  EXPECT_EQ(decodeFrame(encodeFrame(goodbye)).kind, FrameKind::kGoodbye);

  Frame query;
  query.kind = FrameKind::kQuery;
  query.text = R"({"op":"snapshot","rank":1})";
  EXPECT_EQ(decodeFrame(encodeFrame(query)).text, query.text);

  Frame response;
  response.kind = FrameKind::kResponse;
  response.text = R"({"series":[]})";
  EXPECT_EQ(decodeFrame(encodeFrame(response)).text, response.text);
}

TEST(AggWire, ReaderReassemblesFramesFedByteByByte) {
  const std::string bytes =
      encodeFrame(sampleHello()) + encodeFrame(sampleBatch());
  FrameReader reader;
  std::vector<Frame> seen;
  Frame frame;
  for (char c : bytes) {
    reader.feed(&c, 1);
    while (reader.next(frame)) {
      seen.push_back(frame);
    }
  }
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0].kind, FrameKind::kHello);
  EXPECT_EQ(seen[0].hello.job, "job-42");
  EXPECT_EQ(seen[1].kind, FrameKind::kBatch);
  EXPECT_EQ(seen[1].records.size(), 3U);
  EXPECT_EQ(reader.pendingBytes(), 0U);
}

TEST(AggWire, ReaderReassemblesAcrossEverySplitPoint) {
  // A TCP read can hand the reader any prefix/suffix split of the
  // stream; every boundary must reassemble to the same three frames.
  Frame goodbye;
  goodbye.kind = FrameKind::kGoodbye;
  goodbye.timeSeconds = 9.0;
  const std::string bytes = encodeFrame(sampleHello()) +
                            encodeFrame(sampleBatch()) +
                            encodeFrame(goodbye);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    FrameReader reader;
    reader.feed(bytes.data(), split);
    std::vector<Frame> seen;
    Frame frame;
    while (reader.next(frame)) {
      seen.push_back(frame);
    }
    reader.feed(bytes.data() + split, bytes.size() - split);
    while (reader.next(frame)) {
      seen.push_back(frame);
    }
    ASSERT_EQ(seen.size(), 3U) << "split " << split;
    EXPECT_EQ(seen[0].hello, sampleHello().hello) << "split " << split;
    EXPECT_EQ(seen[1].records, sampleBatch().records) << "split " << split;
    EXPECT_EQ(seen[2].kind, FrameKind::kGoodbye) << "split " << split;
    EXPECT_EQ(reader.pendingBytes(), 0U) << "split " << split;
  }
}

TEST(AggWire, ReaderReassemblesRandomFragmentation) {
  // Seeded random 1–7 byte chunks over a longer multi-frame stream —
  // the arbitrary-fragmentation shape a loaded loopback socket
  // actually produces.
  std::string bytes;
  std::vector<Frame> expected;
  for (int i = 0; i < 25; ++i) {
    Frame frame = (i % 2 == 0) ? sampleHello() : sampleBatch();
    frame.timeSeconds = static_cast<double>(i);
    expected.push_back(frame);
    bytes += encodeFrame(frame);
  }
  std::mt19937_64 rng(987654321);
  for (int trial = 0; trial < 20; ++trial) {
    FrameReader reader;
    std::vector<Frame> seen;
    Frame frame;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng() % 7, bytes.size() - pos);
      reader.feed(bytes.data() + pos, chunk);
      pos += chunk;
      while (reader.next(frame)) {
        seen.push_back(frame);
      }
    }
    ASSERT_EQ(seen.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].kind, expected[i].kind);
      EXPECT_EQ(seen[i].hello, expected[i].hello);
      EXPECT_EQ(seen[i].records, expected[i].records);
    }
    EXPECT_EQ(reader.pendingBytes(), 0U);
  }
}

TEST(AggWire, ReaderReturnsFalseOnIncompleteFrame) {
  const std::string bytes = encodeFrame(sampleBatch());
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size() - 1);  // all but the last byte
  Frame frame;
  EXPECT_FALSE(reader.next(frame));
  reader.feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.kind, FrameKind::kBatch);
}

TEST(AggWire, TruncatedPayloadThrows) {
  std::string bytes = encodeFrame(sampleHello());
  // Shrink the payload but leave the length prefix claiming more: the
  // standalone decoder must refuse.
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW(decodeFrame(bytes), ParseError);
}

TEST(AggWire, VersionMismatchThrows) {
  // The wire speaks one version: every other byte value is refused.
  for (const int version : {0, 1, 2, 3, 5}) {
    std::string bytes = encodeFrame(sampleHello());
    ASSERT_EQ(bytes[4], static_cast<char>(kWireVersion));  // version byte
    bytes[4] = static_cast<char>(version);
    FrameReader reader;
    reader.feed(bytes);
    Frame frame;
    EXPECT_THROW(reader.next(frame), ParseError) << version;
  }
}

TEST(AggWire, UnknownKindThrows) {
  std::string bytes = encodeFrame(sampleHello());
  bytes[5] = 99;  // kind byte
  FrameReader reader;
  reader.feed(bytes);
  Frame frame;
  EXPECT_THROW(reader.next(frame), ParseError);
}

TEST(AggWire, HostileLengthPrefixThrowsBeforeBuffering) {
  // A length prefix beyond kMaxPayloadBytes must be rejected up front,
  // not allocated.
  std::string bytes(6, '\0');
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<char>((huge >> (8 * i)) & 0xFFU);
  }
  bytes[4] = static_cast<char>(kWireVersion);
  bytes[5] = static_cast<char>(FrameKind::kHeartbeat);
  FrameReader reader;
  reader.feed(bytes);
  Frame frame;
  EXPECT_THROW(reader.next(frame), ParseError);
}

TEST(AggWire, TrailingPayloadBytesThrow) {
  // Append a byte inside the declared payload region of a heartbeat.
  Frame heartbeat;
  heartbeat.kind = FrameKind::kHeartbeat;
  heartbeat.timeSeconds = 1.0;
  std::string bytes = encodeFrame(heartbeat);
  // Grow payload length by one and append a stray byte.
  bytes[0] = static_cast<char>(bytes[0] + 1);
  bytes.push_back('\x7f');
  EXPECT_THROW(decodeFrame(bytes), ParseError);
}

TEST(AggWire, RecordCountMismatchThrows) {
  // Corrupt a batch's record count to claim more records than the
  // payload can hold.
  Frame batch = sampleBatch();
  std::string bytes = encodeFrame(batch);
  // Payload layout: f64 time, u64 batch seq, three f64 latency stamps,
  // then the u32 record count at offset 6+40.
  bytes[6 + 40] = '\x7f';
  EXPECT_THROW(decodeFrame(bytes), ParseError);
}

TEST(AggWire, EmptyBatchRoundTrips) {
  Frame frame;
  frame.kind = FrameKind::kBatch;
  frame.timeSeconds = 2.0;
  const Frame out = decodeFrame(encodeFrame(frame));
  EXPECT_TRUE(out.records.empty());
}

// --- batch sequence numbers and acks ----------------------------------------

TEST(AggWire, BatchSeqRoundTripsOnV2) {
  Frame batch = sampleBatch();
  batch.batchSeq = 0xDEADBEEF12345678ULL;
  const Frame out = decodeFrame(encodeFrame(batch));
  EXPECT_EQ(out.batchSeq, 0xDEADBEEF12345678ULL);
  EXPECT_EQ(out.records, batch.records);
}

TEST(AggWire, BatchAckRoundTripsSeqAndPressure) {
  Frame ack;
  ack.kind = FrameKind::kBatchAck;
  ack.batchSeq = 41;
  ack.pressure = PressureLevel::kOverloaded;
  const Frame out = decodeFrame(encodeFrame(ack));
  EXPECT_EQ(out.kind, FrameKind::kBatchAck);
  EXPECT_EQ(out.batchSeq, 41U);
  EXPECT_EQ(out.pressure, PressureLevel::kOverloaded);
}

TEST(AggWire, AckPressureOutOfRangeThrows) {
  Frame ack;
  ack.kind = FrameKind::kBatchAck;
  ack.batchSeq = 1;
  std::string bytes = encodeFrame(ack);
  bytes[6 + 8] = 9;  // pressure byte past kOverloaded
  EXPECT_THROW(decodeFrame(bytes), ParseError);
}

// --- robustness fuzz: garbage and bit flips must never crash ----------------

TEST(AggWire, SeededRandomGarbageNeverCrashesTheReader) {
  // Pure noise fed in random chunks: every outcome must be "parse error"
  // (connection would be dropped) or "still waiting for bytes" — never a
  // crash, hang, or unbounded buffer.
  std::mt19937_64 rng(0xC0FFEEULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::string noise(1 + rng() % 512, '\0');
    for (char& c : noise) {
      c = static_cast<char>(rng() & 0xFFU);
    }
    FrameReader reader;
    Frame frame;
    bool dead = false;
    std::size_t pos = 0;
    while (pos < noise.size() && !dead) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng() % 64, noise.size() - pos);
      reader.feed(noise.data() + pos, chunk);
      pos += chunk;
      try {
        while (reader.next(frame)) {
          // A random 6-byte header is overwhelmingly invalid, but a
          // coincidentally well-formed frame is an acceptable decode.
        }
      } catch (const ParseError&) {
        dead = true;  // the owner drops the connection here
      }
    }
    EXPECT_LE(reader.pendingBytes(), kMaxPayloadBytes + 6U) << "trial "
                                                            << trial;
  }
}

TEST(AggWire, BitFlippedStreamsFailDeterministically) {
  // Flip one bit somewhere in a valid stream holding one frame of every
  // kind, so a flip can land in any payload layout.  The reader must
  // either still decode frames (the flip hit a value field) or throw
  // ParseError — and two readers over the same corrupted bytes must
  // agree exactly (deterministic disconnect, no state dependence).
  std::vector<Frame> frames = {sampleHello(), sampleBatch()};
  const auto add = [&frames](FrameKind kind) -> Frame& {
    frames.emplace_back().kind = kind;
    frames.back().batchSeq = frames.size();
    frames.back().timeSeconds = 7.5;
    return frames.back();
  };
  Frame& forward = add(FrameKind::kForward);
  forward.origin = "node-1";
  forward.hopCount = 1;
  forward.rankLo = 0;
  forward.rankHi = 3;
  forward.forwardSources.push_back({"job-42", 3, 8, "node0003", 0, 1.5});
  forward.forwardWindows.push_back(
      {"job-42", 3, "hwt.0.user_pct", 1, 12, 1.0, 9.0, 15.0, 4});
  Frame& announce = add(FrameKind::kCatalogAnnounce);
  announce.catalogEntry = {DaemonRole::kGroup, "g0", "127.0.0.1", 7000,
                           0, kShardSpace - 1, 3};
  add(FrameKind::kCatalogAck).catalogTtlSeconds = 15.0;
  add(FrameKind::kBatchAck).pressure = PressureLevel::kElevated;
  add(FrameKind::kHealth).health = {100, 5, 2, 1, 3};
  add(FrameKind::kHeartbeat);
  add(FrameKind::kGoodbye);
  add(FrameKind::kQuery).text = R"({"op":"snapshot","rank":3})";
  add(FrameKind::kResponse).text = R"({"series":[]})";
  std::string clean;
  for (const Frame& frame : frames) {
    clean += encodeFrame(frame);
  }
  const int kinds = static_cast<int>(frames.size());
  ASSERT_EQ(kinds, static_cast<int>(FrameKind::kCatalogAck));
  std::mt19937_64 rng(0xB17F11BULL);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = clean;
    const std::size_t bit = rng() % (bytes.size() * 8);
    bytes[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(bytes[bit / 8]) ^ (1U << (bit % 8)));

    auto runReader = [&bytes](std::size_t feedChunk) {
      FrameReader reader;
      Frame frame;
      std::pair<int, bool> outcome{0, false};  // frames decoded, died
      std::size_t pos = 0;
      while (pos < bytes.size()) {
        const std::size_t chunk =
            std::min(feedChunk, bytes.size() - pos);
        reader.feed(bytes.data() + pos, chunk);
        pos += chunk;
        try {
          while (reader.next(frame)) {
            ++outcome.first;
          }
        } catch (const ParseError&) {
          outcome.second = true;
          return outcome;
        }
      }
      return outcome;
    };
    const auto oneShot = runReader(bytes.size());
    const auto byteWise = runReader(1);
    EXPECT_EQ(oneShot, byteWise) << "trial " << trial << " bit " << bit;
    EXPECT_LE(oneShot.first, kinds);
  }
}
