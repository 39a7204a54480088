// Wire protocol: roundtrips, incremental decoding, and the strictness
// guarantees the daemon relies on (truncation, version mismatch, and
// hostile length prefixes all throw instead of guessing).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aggregator/wire.hpp"
#include "common/error.hpp"
#include "common/interning.hpp"
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
  frame.records.push_back({12.5, names::intern("hwt.0.user_pct"), 87.5});
  frame.records.push_back(
      {12.5, names::intern("lwp.51334.utime_delta"), 99.0});
  frame.records.push_back({12.5, names::intern("mem.process_rss_kb"), 1.25e6});
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
  for (const int version : {0, 1, 2, 3, 4, 5, 7}) {
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
  // The u32 record count sits just before the three 20-byte records.
  const std::size_t countAt = bytes.size() - 3 * 20 - 4;
  ASSERT_EQ(bytes[countAt], 3);
  bytes[countAt] = '\x7f';
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
  // One connection: the kForward frame declares only the names the
  // kBatch before it did not, so a flip can also land in a reference to
  // an earlier frame's name.
  const std::vector<Frame> frames = oneFrameOfEveryKind();
  NameRefs names;
  std::string clean;
  for (const Frame& frame : frames) {
    clean += encodeFrame(frame, names);
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
  // The encoded bytes of oneFrameOfEveryKind(), in its order, each frame
  // the first of its connection.  Every row but kBatch and kForward is
  // what wire version 5 wrote with its version byte (byte 4) raised to 6;
  // kBatch and kForward carry a names section and then name references.
  const std::vector<std::string> pinned = {
      // kHello
        "1e000000060106006a6f622d3432030000000800000008006e6f646530303033"
        "86c80000",
      // kBatch
        "a700000006020000000000002940000000000000000000000000000000000000"
        "000000000000000000000000f0bf030000000e006877742e302e757365725f70"
        "637415006c77702e35313333342e7574696d655f64656c746112006d656d2e70"
        "726f636573735f7273735f6b6203000000000000000000294000000000000000"
        "0000e055400000000000002940010000000000000000c0584000000000000029"
        "400200000000000000d0123341",
      // kForward
        "3301000006090000000000001e4003000000000000000106006e6f64652d3100"
        "00000003000000010006006a6f622d3432030000000800000008006e6f646530"
        "30303300000000000000f83f0300000006006a6f622d34320e006877742e302e"
        "757365725f70637407006d656d2e727373020000000000000003000000010000"
        "0002000000000c00000000000000000000000000f03f00000000000022400000"
        "000000002e400400000000000000010100000000000000000000000000e03f00"
        "0000000000224000000000008034400600000000000000000000000400000002"
        "00000002000000000c0000000000000000000000000014400000000000001440"
        "00000000000014400100000000000000000d0000000000000000000000000018"
        "400000000000001c400000000000002a400200000000000000",
      // kCatalogAnnounce
        "24000000060a010200673009003132372e302e302e31581b000000000000ffff"
        "00000300000000000000",
      // kCatalogAck
        "10000000060b00000000000000000000000000002e40",
      // kBatchAck
        "090000000608060000000000000001",
      // kHealth
        "2400000006036400000000000000050000000000000002000000000000000100"
        "00000000000003000000",
      // kHeartbeat
        "0800000006040000000000001e40",
      // kGoodbye
        "0800000006050000000000001e40",
      // kQuery
        "1a00000006067b226f70223a22736e617073686f74222c2272616e6b223a337d",
      // kResponse
        "0d00000006077b22736572696573223a5b5d7d",
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

/// A double's bits, so a NaN decoded from a mutant equals itself.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Expects two frames to hold the same kBatch or kForward data: names by
/// id, doubles by their bits.
void expectSameFrame(const Frame& a, const Frame& b) {
  ASSERT_EQ(a.kind, b.kind);
  EXPECT_EQ(bits(a.timeSeconds), bits(b.timeSeconds));
  EXPECT_EQ(a.batchSeq, b.batchSeq);
  EXPECT_EQ(bits(a.enqueueSeconds), bits(b.enqueueSeconds));
  EXPECT_EQ(bits(a.encodeSeconds), bits(b.encodeSeconds));
  EXPECT_EQ(bits(a.prevRoundtripSeconds), bits(b.prevRoundtripSeconds));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(bits(a.records[i].timeSeconds), bits(b.records[i].timeSeconds));
    EXPECT_EQ(a.records[i].name, b.records[i].name);
    EXPECT_EQ(bits(a.records[i].value), bits(b.records[i].value));
  }
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.hopCount, b.hopCount);
  EXPECT_EQ(a.rankLo, b.rankLo);
  EXPECT_EQ(a.rankHi, b.rankHi);
  ASSERT_EQ(a.forwardSources.size(), b.forwardSources.size());
  for (std::size_t i = 0; i < a.forwardSources.size(); ++i) {
    const ForwardSource& x = a.forwardSources[i];
    const ForwardSource& y = b.forwardSources[i];
    EXPECT_TRUE(x.job == y.job && x.rank == y.rank &&
                x.worldSize == y.worldSize && x.hostname == y.hostname &&
                x.state == y.state &&
                bits(x.lastSeenAgeSeconds) == bits(y.lastSeenAgeSeconds));
  }
  const auto blocksA = a.forwardSeries.blocks();
  const auto blocksB = b.forwardSeries.blocks();
  ASSERT_EQ(blocksA.size(), blocksB.size());
  for (std::size_t i = 0; i < blocksA.size(); ++i) {
    EXPECT_EQ(blocksA[i].key, blocksB[i].key);
    const auto windowsA = a.forwardSeries.windows(blocksA[i]);
    const auto windowsB = b.forwardSeries.windows(blocksB[i]);
    ASSERT_EQ(windowsA.size(), windowsB.size());
    for (std::size_t w = 0; w < windowsA.size(); ++w) {
      const WindowSnapshot& x = windowsA[w];
      const WindowSnapshot& y = windowsB[w];
      EXPECT_TRUE(x.resolution == y.resolution &&
                  x.windowIndex == y.windowIndex &&
                  bits(x.rollup.min) == bits(y.rollup.min) &&
                  bits(x.rollup.max) == bits(y.rollup.max) &&
                  bits(x.rollup.sum) == bits(y.rollup.sum) &&
                  x.rollup.count == y.rollup.count);
    }
  }
}

/// Decodes `bytes`: true when they decode, in which case the decoded
/// frame survives an encode and a decode unchanged; false on ParseError.
/// (Byte equality cannot hold: a mutant may declare a name twice or
/// never use one, and the re-encode declares each used name once.)  Any
/// other exception fails the test.
bool decodesAndRoundTrips(const std::string& bytes) {
  try {
    const Frame frame = decodeFrame(bytes);
    expectSameFrame(decodeFrame(encodeFrame(frame)), frame);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

/// The message decodeFrame() throws for `bytes`, or "decoded".
std::string refusal(const std::string& bytes) {
  try {
    (void)decodeFrame(bytes);
    return "decoded";
  } catch (const ParseError& e) {
    return e.what();
  }
}

/// Seeded mutations of `clean`'s payload: bit flips, random bytes, one of
/// `countFields` swapped for another count, truncation and inserted
/// bytes.  Every input must decode (and round-trip) or throw ParseError,
/// and both outcomes must occur often.
void expectMutantsDecodeOrThrow(const std::string& clean,
                                std::span<const std::size_t> countFields,
                                std::uint64_t seed) {
  stats::SplitMix64 rng(seed);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.nextBelow(n));
  };
  const std::uint32_t counts[] = {0, 1, 2, 3, 255, 0x10000, 0xFFFFFFFFU};
  std::size_t decodedCount = 0;
  std::size_t refused = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string bytes = clean;
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
          const std::size_t field = countFields[below(countFields.size())];
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

}  // namespace

TEST(AggWire, MutatedForwardPayloadsDecodeOrThrow) {
  const Frame forward = oneFrameOfEveryKind()[2];
  ASSERT_EQ(forward.kind, FrameKind::kForward);
  const std::string clean = encodeFrame(forward);
  // Offsets: without blocks the frame ends with its names count and a
  // zero series count; the names section declares "job-42",
  // "hwt.0.user_pct" and "mem.rss" (37 bytes).  The first block's
  // window count follows its 12-byte key, then its first window's
  // resolution.
  Frame head = forward;
  head.forwardSeries.clear();
  const std::size_t namesCountAt = encodeFrame(head).size() - 8;
  const std::size_t seriesCountAt = namesCountAt + 37;
  const std::size_t windowCountAt = seriesCountAt + 4 + 12;
  const std::size_t resolutionAt = windowCountAt + 4;
  const std::size_t lastBlockAt = resolutionAt + 2 * 41;
  ASSERT_EQ(clean.size(), lastBlockAt + 12 + 4 + 2 * 41);
  ASSERT_TRUE(decodesAndRoundTrips(clean));

  // Names, series and window counts larger than the payload holds:
  // refused up front when the rest of the payload cannot hold that many
  // empty names, blocks or windows, and by running out of bytes (or
  // meeting a malformed block) otherwise.
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
  for (const std::uint32_t count : {1000U, 0xFFFFFFFFU}) {
    std::string bytes = clean;
    putU32At(bytes, namesCountAt, count);
    EXPECT_NE(refusal(bytes).find("names count exceeds payload"),
              std::string::npos);
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
  // A block key naming a reference past the three declared.
  bytes = clean;
  putU32At(bytes, seriesCountAt + 4, 3);
  EXPECT_NE(refusal(bytes).find("not declared"), std::string::npos);
  // A block with no window: no sender writes one, so it is refused.
  Frame empty = forward;
  empty.forwardSeries.open() = {"job-42", 5, "idle"};
  EXPECT_THROW(decodeFrame(encodeFrame(empty)), ParseError);
  bytes = clean;
  putU32At(bytes, windowCountAt, 0);
  EXPECT_THROW(decodeFrame(bytes), ParseError);

  const std::size_t countFields[] = {namesCountAt, seriesCountAt,
                                     windowCountAt, lastBlockAt + 12};
  expectMutantsDecodeOrThrow(clean, countFields, 2727);
}

TEST(AggWire, MutatedBatchPayloadsDecodeOrThrow) {
  const Frame batch = sampleBatch();
  const std::string clean = encodeFrame(batch);
  // The names count follows the 40 bytes of time, sequence and stamps;
  // the record count precedes the three 20-byte records.
  const std::size_t namesCountAt = 6 + 40;
  const std::size_t recordCountAt = clean.size() - 3 * 20 - 4;
  ASSERT_TRUE(decodesAndRoundTrips(clean));
  for (const std::size_t at : {namesCountAt, recordCountAt}) {
    std::string bytes = clean;
    putU32At(bytes, at, 1000);
    EXPECT_NE(refusal(bytes).find("exceeds payload"), std::string::npos);
  }
  // A record naming a reference past the three declared.
  std::string bytes = clean;
  putU32At(bytes, recordCountAt + 4 + 8, 3);
  EXPECT_NE(refusal(bytes).find("not declared"), std::string::npos);
  // A cut inside the names section or the records.
  for (std::size_t end = namesCountAt; end < clean.size(); ++end) {
    bytes = clean.substr(0, end);
    fixLength(bytes);
    EXPECT_THROW(decodeFrame(bytes), ParseError) << "cut at " << end;
  }

  const std::size_t countFields[] = {namesCountAt, recordCountAt};
  expectMutantsDecodeOrThrow(clean, countFields, 2828);
}

// --- connection name tables -------------------------------------------------

TEST(AggWire, OneConnectionCarriesNamesAsTextNeverAsLocalIds) {
  // Decoys first: this process's ids for the names below then lie far
  // from the references 0, 1, 2, ... the connection gives them, so a
  // sender that wrote its ids, or a receiver that read references as
  // ids, decodes the wrong text or throws.
  for (int i = 0; i < 64; ++i) {
    names::intern("wire.decoy." + std::to_string(i));
  }
  const names::Id alpha = names::intern("wire.table.alpha");
  const names::Id beta = names::intern("wire.table.beta");
  const names::Id gamma = names::intern("wire.table.gamma");
  ASSERT_GT(alpha, 64U);

  Frame batch;
  batch.kind = FrameKind::kBatch;
  batch.records = {{1.0, beta, 1.0}, {1.0, alpha, 2.0}, {2.0, beta, 3.0}};
  Frame forward;
  forward.kind = FrameKind::kForward;
  forward.forwardSeries.open() = {"wire.table.job", 7, "wire.table.alpha"};
  forward.forwardSeries.push({Resolution::kFine, 4, {1.0, 2.0, 3.0, 2}});
  forward.forwardSeries.open() = {"wire.table.job", 8, "wire.table.gamma"};
  forward.forwardSeries.push({Resolution::kCoarse, 0, {5.0, 5.0, 5.0, 1}});

  NameRefs sender;
  FrameReader receiver;
  receiver.feed(encodeFrame(batch, sender));
  const std::string forwardBytes = encodeFrame(forward, sender);
  receiver.feed(forwardBytes);
  // The batch declared beta and alpha, so the forward frame declares the
  // job and gamma but not alpha again.
  EXPECT_EQ(encodeFrame(forward).size() - forwardBytes.size(),
            2 + std::string_view("wire.table.alpha").size());

  Frame out;
  ASSERT_TRUE(receiver.next(out));
  ASSERT_EQ(out.kind, FrameKind::kBatch);
  ASSERT_EQ(out.records.size(), 3U);
  const char* const batchNames[] = {"wire.table.beta", "wire.table.alpha",
                                    "wire.table.beta"};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(names::lookup(out.records[i].name), batchNames[i]) << i;
    EXPECT_EQ(out.records[i].value, batch.records[i].value);
  }
  ASSERT_TRUE(receiver.next(out));
  ASSERT_EQ(out.kind, FrameKind::kForward);
  const auto blocks = out.forwardSeries.blocks();
  ASSERT_EQ(blocks.size(), 2U);
  EXPECT_EQ(blocks[0].key.jobName(), "wire.table.job");
  EXPECT_EQ(blocks[0].key.rank, 7);
  EXPECT_EQ(blocks[0].key.metricName(), "wire.table.alpha");
  EXPECT_EQ(blocks[1].key.jobName(), "wire.table.job");
  EXPECT_EQ(blocks[1].key.rank, 8);
  EXPECT_EQ(blocks[1].key.metricName(), "wire.table.gamma");
  EXPECT_EQ(blocks[1].key.metric, gamma);
  EXPECT_EQ(out.forwardSeries.windows(blocks[1])[0].rollup.min, 5.0);
  EXPECT_FALSE(receiver.next(out));
}

TEST(AggWire, ReferencesToAnEarlierFrameNeedThatConnection) {
  NameRefs sender;
  Frame first;
  first.kind = FrameKind::kBatch;
  first.records = {{1.0, names::intern("wire.earlier.x"), 1.0},
                   {1.0, names::intern("wire.earlier.y"), 2.0}};
  Frame second = first;
  std::swap(second.records[0].name, second.records[1].name);
  const std::string one = encodeFrame(first, sender);
  const std::string two = encodeFrame(second, sender);
  EXPECT_EQ(two.size(), 6 + 40 + 4 + 4 + 2 * 20U);  // declares nothing

  FrameReader connection;
  connection.feed(one + two);
  Frame out;
  ASSERT_TRUE(connection.next(out));
  ASSERT_TRUE(connection.next(out));
  ASSERT_EQ(out.records.size(), 2U);
  EXPECT_EQ(names::lookup(out.records[0].name), "wire.earlier.y");
  EXPECT_EQ(names::lookup(out.records[1].name), "wire.earlier.x");

  // On a fresh connection the references name nothing.
  FrameReader fresh;
  fresh.feed(two);
  EXPECT_THROW(fresh.next(out), ParseError);
  EXPECT_THROW(decodeFrame(two), ParseError);
  // A cleared table declares everything again.
  sender.clear();
  EXPECT_EQ(decodeFrame(encodeFrame(second, sender)).records.size(), 2U);
}

namespace {

/// A kBatch frame's bytes, built by hand: `declared` names, each
/// `text`, then one record per reference in `refs`.
std::string rawBatch(std::uint32_t declared, const std::string& text,
                     const std::vector<std::uint32_t>& refs) {
  std::string bytes(4, '\0');
  bytes += static_cast<char>(kWireVersion);
  bytes += static_cast<char>(FrameKind::kBatch);
  bytes.append(40, '\0');  // time, sequence and stamps
  const auto u32 = [&bytes](std::uint32_t v) {
    bytes.append(4, '\0');
    putU32At(bytes, bytes.size() - 4, v);
  };
  u32(declared);
  for (std::uint32_t i = 0; i < declared; ++i) {
    bytes += static_cast<char>(text.size());
    bytes += '\0';
    bytes += text;
  }
  u32(static_cast<std::uint32_t>(refs.size()));
  for (const std::uint32_t ref : refs) {
    bytes.append(8, '\0');
    u32(ref);
    bytes.append(8, '\0');
  }
  fixLength(bytes);
  return bytes;
}

}  // namespace

TEST(AggWire, UndeclaredReferencesAndOversizedTablesThrow) {
  // A reference before any declaration, and one past the table.
  EXPECT_NE(refusal(rawBatch(0, "", {0})).find("not declared"),
            std::string::npos);
  EXPECT_NE(refusal(rawBatch(2, "a", {0, 1, 2})).find("not declared"),
            std::string::npos);
  EXPECT_EQ(decodeFrame(rawBatch(2, "a", {0, 1})).records.size(), 2U);

  // The table cap: a connection may declare kMaxConnectionNames names (a
  // repeated declaration is legal and takes one more reference) and not
  // one more, in one frame or across frames.
  const std::string full = rawBatch(kMaxConnectionNames, "", {});
  FrameReader connection;
  connection.feed(full);
  Frame out;
  ASSERT_TRUE(connection.next(out));
  // The last reference of the full table resolves.
  connection.feed(rawBatch(0, "", {kMaxConnectionNames - 1}));
  ASSERT_TRUE(connection.next(out));
  EXPECT_EQ(out.records.size(), 1U);
  connection.feed(rawBatch(1, "", {}));
  EXPECT_NE(refusal(rawBatch(kMaxConnectionNames + 1, "", {}))
                .find("more than"),
            std::string::npos);
  try {
    connection.next(out);
    ADD_FAILURE() << "a name past the cap decoded";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("more than"), std::string::npos);
  }
}

TEST(AggWire, RecordsAndBlocksNamedInvalidIdAreLeftOut) {
  // names::kInvalidId is the interner's table-full answer: a name it
  // refused has no text to declare, so the encoder leaves the record or
  // block out instead of sending it under "".
  Frame batch;
  batch.kind = FrameKind::kBatch;
  batch.records = {{1.0, names::kInvalidId, 1.0},
                   {1.0, names::intern("wire.named"), 2.0}};
  const Frame decodedBatch = decodeFrame(encodeFrame(batch));
  ASSERT_EQ(decodedBatch.records.size(), 1U);
  EXPECT_EQ(names::lookup(decodedBatch.records[0].name), "wire.named");

  Frame forward;
  forward.kind = FrameKind::kForward;
  forward.forwardSeries.open() = {names::kInvalidId, 0,
                                  names::intern("wire.named")};
  forward.forwardSeries.push({Resolution::kFine, 1, {1.0, 1.0, 1.0, 1}});
  forward.forwardSeries.open() = {names::intern("wire.job"), 0,
                                  names::intern("wire.named")};
  forward.forwardSeries.push({Resolution::kFine, 1, {2.0, 2.0, 2.0, 1}});
  const Frame decodedForward = decodeFrame(encodeFrame(forward));
  ASSERT_EQ(decodedForward.forwardSeries.blocks().size(), 1U);
  EXPECT_EQ(decodedForward.forwardSeries.blocks()[0].key.jobName(),
            "wire.job");
}

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

TEST(AggWire, DeclaredNamesTheInternerRefusesDecodeAsInvalidId) {
  // With the interner full, a declared text it has never seen gets no id:
  // its references decode as names::kInvalidId (the daemon then drops
  // and counts what they name) while known names keep their ids.  The
  // frames are built from names this process holds, then renamed to
  // texts it never interned.
  const names::Id kept = names::intern("wire.full.kept");
  Frame batch;
  batch.kind = FrameKind::kBatch;
  batch.records = {{1.0, kept, 1.0},
                   {1.0, names::intern("wire.full.nameA"), 2.0}};
  Frame forward;
  forward.kind = FrameKind::kForward;
  forward.forwardSeries.open() = {"wire.full.jobA", 3, "wire.full.kept"};
  forward.forwardSeries.push({Resolution::kFine, 1, {1.0, 1.0, 1.0, 1}});
  forward.forwardSeries.open() = {"wire.full.kept", 4, "wire.full.nameA"};
  forward.forwardSeries.push({Resolution::kFine, 1, {2.0, 2.0, 2.0, 1}});
  const std::string batchBytes =
      renamed(encodeFrame(batch), "wire.full.nameA", "wire.full.nameB");
  const std::string forwardBytes =
      renamed(renamed(encodeFrame(forward), "wire.full.nameA",
                      "wire.full.nameB"),
              "wire.full.jobA", "wire.full.jobB");

  Frame decodedBatch;
  Frame decodedForward;
  {
    const FullInterner full;
    decodedBatch = decodeFrame(batchBytes);
    decodedForward = decodeFrame(forwardBytes);
  }

  EXPECT_EQ(names::find("wire.full.nameB"), names::kInvalidId);
  EXPECT_EQ(names::find("wire.full.jobB"), names::kInvalidId);
  ASSERT_EQ(decodedBatch.records.size(), 2U);
  EXPECT_EQ(decodedBatch.records[0].name, kept);
  EXPECT_EQ(decodedBatch.records[1].name, names::kInvalidId);
  EXPECT_EQ(decodedBatch.records[1].value, 2.0);
  const auto blocks = decodedForward.forwardSeries.blocks();
  ASSERT_EQ(blocks.size(), 2U);
  EXPECT_EQ(blocks[0].key.job, names::kInvalidId);
  EXPECT_EQ(blocks[0].key.metric, kept);
  EXPECT_EQ(blocks[1].key.job, kept);
  EXPECT_EQ(blocks[1].key.metric, names::kInvalidId);
}
