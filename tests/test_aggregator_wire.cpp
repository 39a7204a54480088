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
#include "common/stats.hpp"

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

/// One frame of every kind: a hello, a batch, then the rest in FrameKind
/// order from kForward (two series blocks of two windows each) on.
std::vector<Frame> oneFrameOfEveryKind() {
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
  SeriesBlocks& series = forward.forwardSeries;
  series.open() = {"job-42", 3, "hwt.0.user_pct"};
  series.push({Resolution::kFine, 12, {1.0, 9.0, 15.0, 4}});
  series.push({Resolution::kCoarse, 1, {0.5, 9.0, 20.5, 6}});
  series.open() = {"job-42", 4, "mem.rss"};
  series.push({Resolution::kFine, 12, {5.0, 5.0, 5.0, 1}});
  series.push({Resolution::kFine, 13, {6.0, 7.0, 13.0, 2}});
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
  return frames;
}

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out += kDigits[byte >> 4U];
    out += kDigits[byte & 0xFU];
  }
  return out;
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
  for (const int version : {0, 1, 2, 3, 4, 6}) {
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
  // kind (the kForward frame with two series blocks of two windows), so a
  // flip can land in any payload layout.  The reader must either still
  // decode frames (the flip hit a value field) or throw ParseError — and
  // two readers over the same corrupted bytes must agree exactly
  // (deterministic disconnect, no state dependence).
  const std::vector<Frame> frames = oneFrameOfEveryKind();
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

TEST(AggWire, EveryFrameKindEncodesToItsPinnedBytes) {
  // The encoded bytes of oneFrameOfEveryKind(), in its order.  Every row
  // but kForward is what wire version 4 wrote with its version byte
  // (byte 4) raised to 5; kForward's row is the series-block layout.
  const std::vector<std::string> pinned = {
      // kHello
        "1e000000050106006a6f622d3432030000000800000008006e6f646530303033"
        "86c80000",
      // kBatch
        "9700000005020000000000002940000000000000000000000000000000000000"
        "000000000000000000000000f0bf0300000000000000000029400e006877742e"
        "302e757365725f7063740000000000e05540000000000000294015006c77702e"
        "35313333342e7574696d655f64656c74610000000000c0584000000000000029"
        "4012006d656d2e70726f636573735f7273735f6b6200000000d0123341",
      // kForward
        "2701000005090000000000001e4003000000000000000106006e6f64652d3100"
        "00000003000000010006006a6f622d3432030000000800000008006e6f646530"
        "30303300000000000000f83f0200000006006a6f622d3432030000000e006877"
        "742e302e757365725f70637402000000000c00000000000000000000000000f0"
        "3f00000000000022400000000000002e40040000000000000001010000000000"
        "0000000000000000e03f00000000000022400000000000803440060000000000"
        "000006006a6f622d34320400000007006d656d2e72737302000000000c000000"
        "0000000000000000000014400000000000001440000000000000144001000000"
        "00000000000d0000000000000000000000000018400000000000001c40000000"
        "0000002a400200000000000000",
      // kCatalogAnnounce
        "24000000050a010200673009003132372e302e302e31581b000000000000ffff"
        "00000300000000000000",
      // kCatalogAck
        "10000000050b00000000000000000000000000002e40",
      // kBatchAck
        "090000000508060000000000000001",
      // kHealth
        "2400000005036400000000000000050000000000000002000000000000000100"
        "00000000000003000000",
      // kHeartbeat
        "0800000005040000000000001e40",
      // kGoodbye
        "0800000005050000000000001e40",
      // kQuery
        "1a00000005067b226f70223a22736e617073686f74222c2272616e6b223a337d",
      // kResponse
        "0d00000005077b22736572696573223a5b5d7d",
  };
  const std::vector<Frame> frames = oneFrameOfEveryKind();
  ASSERT_EQ(frames.size(), pinned.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::string bytes = encodeFrame(frames[i]);
    EXPECT_EQ(hex(bytes), pinned[i])
        << "kind " << static_cast<int>(frames[i].kind);
  }
}

namespace {

/// Sets the frame's u32 length prefix to its payload size, so the
/// payload decoder sees a mutated payload whole.
void fixLength(std::string& bytes) {
  const std::size_t length = bytes.size() - 6;
  for (unsigned i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((length >> (8U * i)) & 0xFFU);
  }
}

void putU32At(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (unsigned i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8U * i)) & 0xFFU);
  }
}

/// Decodes `bytes`: true when they decode, in which case encoding the
/// decoded frame gives them back; false on ParseError.  Any other
/// exception fails the test.
bool decodesAndRoundTrips(const std::string& bytes) {
  try {
    const Frame frame = decodeFrame(bytes);
    EXPECT_EQ(hex(encodeFrame(frame)), hex(bytes));
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

}  // namespace

TEST(AggWire, MutatedForwardPayloadsDecodeOrThrow) {
  const Frame forward = oneFrameOfEveryKind()[2];
  ASSERT_EQ(forward.kind, FrameKind::kForward);
  const std::string clean = encodeFrame(forward);
  // Offsets: the u32 series count ends the frame without blocks; the
  // first block's window count follows its key ("job-42", 3,
  // "hwt.0.user_pct": 28 bytes), then its first window's resolution.
  Frame head = forward;
  head.forwardSeries.clear();
  const std::size_t seriesCountAt = encodeFrame(head).size() - 4;
  const std::size_t windowCountAt = seriesCountAt + 4 + 28;
  const std::size_t resolutionAt = windowCountAt + 4;
  const std::size_t lastBlockAt = resolutionAt + 2 * 41;
  ASSERT_EQ(clean.size(), lastBlockAt + 2 + 6 + 4 + 2 + 7 + 4 + 2 * 41);
  ASSERT_TRUE(decodesAndRoundTrips(clean));

  // Series and window counts larger than the payload holds: refused up
  // front when the rest of the payload cannot hold that many empty blocks
  // or windows, and by running out of bytes otherwise.
  const auto refusal = [](const std::string& bytes) {
    try {
      (void)decodeFrame(bytes);
      return std::string("decoded");
    } catch (const ParseError& e) {
      return std::string(e.what());
    }
  };
  for (const std::uint32_t count : {3U, 1000U, 0xFFFFFFFFU}) {
    const bool upFront = count > 3;
    for (const std::size_t at : {seriesCountAt, windowCountAt}) {
      std::string bytes = clean;
      putU32At(bytes, at, count);
      const std::string why = refusal(bytes);
      EXPECT_NE(why, "decoded") << count;
      EXPECT_EQ(why.find("exceeds payload") != std::string::npos, upFront)
          << why;
    }
  }
  // A block cut short anywhere, the length prefix agreeing with the cut.
  for (std::size_t end = lastBlockAt; end < clean.size(); ++end) {
    std::string bytes = clean.substr(0, end);
    fixLength(bytes);
    EXPECT_THROW(decodeFrame(bytes), ParseError) << "cut at " << end;
  }
  // A resolution byte past coarse.
  std::string bytes = clean;
  bytes[resolutionAt] = 2;
  EXPECT_THROW(decodeFrame(bytes), ParseError);
  // A block with no window: no sender writes one, so it is refused.
  Frame empty = forward;
  empty.forwardSeries.open() = {"job-42", 5, "idle"};
  EXPECT_THROW(decodeFrame(encodeFrame(empty)), ParseError);
  bytes = clean;
  putU32At(bytes, windowCountAt, 0);
  EXPECT_THROW(decodeFrame(bytes), ParseError);

  // Seeded mutations of the payload: bit flips, random bytes, count
  // fields swapped for another value, truncation and inserted bytes.
  // Every input decodes (and re-encodes to itself) or throws ParseError.
  stats::SplitMix64 rng(2727);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.nextBelow(n));
  };
  const std::size_t countFields[] = {seriesCountAt, windowCountAt,
                                     lastBlockAt + 2 + 6 + 4 + 2 + 7};
  const std::uint32_t counts[] = {0, 1, 2, 3, 255, 0x10000, 0xFFFFFFFFU};
  std::size_t decodedCount = 0;
  std::size_t refused = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    bytes = clean;
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = 6 + below(bytes.size() - 6);
      switch (below(5)) {
        case 0:
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << below(8)));
          break;
        case 1:
          bytes[at] = static_cast<char>(below(256));
          break;
        case 2: {
          const std::size_t field = countFields[below(3)];
          if (field + 4 <= bytes.size()) {
            putU32At(bytes, field, counts[below(std::size(counts))]);
          }
          break;
        }
        case 3:
          bytes.resize(at);
          break;
        default:
          bytes.insert(at, 1 + below(41), static_cast<char>(below(256)));
          break;
      }
    }
    fixLength(bytes);
    ++(decodesAndRoundTrips(bytes) ? decodedCount : refused);
    if (::testing::Test::HasFailure()) {
      FAIL() << "trial " << trial << ": " << hex(bytes);
    }
  }
  // Both outcomes occur, so the property is not vacuous.
  EXPECT_GT(decodedCount, 1000U);
  EXPECT_GT(refused, 1000U);
}
