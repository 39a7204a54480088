// Segment tests: write/read round-trip, footer verification (missing
// footer, corrupted CRC, truncated file), atomic publish, Rollup::combine
// associativity, the mmap-or-buffered read path, find() over a footer
// that breaks the writer's (key, resolution) order, and a footer extent
// whose offset + length wraps.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "tsdb/codec.hpp"
#include "tsdb/crc32.hpp"
#include "tsdb/engine.hpp"
#include "tsdb/segment.hpp"

using namespace zerosum;
using namespace zerosum::tsdb;

namespace {

namespace fs = std::filesystem;

Rollup rollupOf(std::initializer_list<double> values) {
  Rollup r;
  for (const double v : values) {
    r.merge(v);
  }
  return r;
}

void expectRollupEq(const Rollup& a, const Rollup& b) {
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_EQ(a.count, b.count);
}

class TsdbSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("zs_seg_test_") + info->name() + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "segment-00000001.zss").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::map<SeriesKey, SeriesWindows> sampleSeries() {
    std::map<SeriesKey, SeriesWindows> series;
    SeriesWindows& cpu = series[{"job", 0, "cpu.util"}];
    for (std::int64_t w = 100; w < 160; ++w) {
      *cpu.fine.findOrInsert(w).first =
          rollupOf({50.0 + static_cast<double>(w % 7),
                    60.0 - static_cast<double>(w % 5)});
    }
    for (std::int64_t w = 10; w < 16; ++w) {
      *cpu.coarse.findOrInsert(w).first = rollupOf({55.0, 52.0, 58.0});
    }
    SeriesWindows& mem = series[{"job", 1, "mem.rss"}];
    // negative window indices survive
    *mem.fine.findOrInsert(-3).first = rollupOf({1.0});
    *mem.fine.findOrInsert(0).first = rollupOf({2.0, 4.0});
    return series;
  }

  std::string readFileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  void writeFileBytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(TsdbSegmentTest, MergeRollupMatchesScalarMergeAndIsAssociative) {
  Rollup whole = rollupOf({3.0, -1.0, 7.0, 2.0, 2.0});
  Rollup left = rollupOf({3.0, -1.0});
  Rollup right = rollupOf({7.0, 2.0, 2.0});
  Rollup merged = left;
  merged.combine(right);
  expectRollupEq(merged, whole);

  // Merging into an empty rollup adopts the other side verbatim.
  Rollup empty;
  empty.combine(right);
  expectRollupEq(empty, right);
  // And merging an empty right side is a no-op.
  Rollup copy = left;
  copy.combine(Rollup{});
  expectRollupEq(copy, left);
}

TEST_F(TsdbSegmentTest, WriteReadRoundTrip) {
  const auto series = sampleSeries();
  SegmentMeta meta;
  meta.fineWindowSeconds = 0.5;
  meta.coarseFactor = 10;
  meta.walSeqCovered = 42;
  const std::uint64_t size = writeSegment(path_, series, meta);
  EXPECT_EQ(size, fs::file_size(path_));

  SegmentReader reader(path_);
  EXPECT_DOUBLE_EQ(reader.meta().fineWindowSeconds, 0.5);
  EXPECT_EQ(reader.meta().coarseFactor, 10);
  EXPECT_EQ(reader.meta().walSeqCovered, 42U);
  EXPECT_EQ(reader.sizeBytes(), size);

  // One entry per non-empty (series, resolution): cpu fine+coarse,
  // mem fine.
  ASSERT_EQ(reader.entries().size(), 3U);

  for (const auto& entry : reader.entries()) {
    const auto it = series.find(entry.key);
    ASSERT_NE(it, series.end());
    const auto& expected = entry.resolution == Resolution::kFine
                               ? it->second.fine
                               : it->second.coarse;
    EXPECT_EQ(entry.windows, expected.size());
    EXPECT_EQ(entry.minWindow, expected.begin()->first);
    EXPECT_EQ(entry.maxWindow, expected.rbegin()->first);

    const auto windows = reader.readWindows(entry);
    ASSERT_EQ(windows.size(), expected.size());
    auto expectedIt = expected.begin();
    for (const auto& [index, rollup] : windows) {
      EXPECT_EQ(index, expectedIt->first);
      expectRollupEq(rollup, expectedIt->second);
      ++expectedIt;
    }
  }
}

TEST_F(TsdbSegmentTest, EmptySeriesMapWritesValidSegment) {
  SegmentMeta meta;
  meta.walSeqCovered = 7;
  writeSegment(path_, {}, meta);
  SegmentReader reader(path_);
  EXPECT_TRUE(reader.entries().empty());
  EXPECT_EQ(reader.meta().walSeqCovered, 7U);
}

TEST_F(TsdbSegmentTest, NoTmpFileSurvivesPublish) {
  writeSegment(path_, sampleSeries(), {});
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".zss") << entry.path();
  }
}

TEST_F(TsdbSegmentTest, MissingFileThrows) {
  EXPECT_THROW(SegmentReader((dir_ / "absent.zss").string()), ParseError);
}

TEST_F(TsdbSegmentTest, MissingFooterThrows) {
  writeSegment(path_, sampleSeries(), {});
  const std::string intact = readFileBytes();
  // An interrupted write: data blocks present, footer never landed.
  writeFileBytes(intact.substr(0, intact.size() - 24));
  EXPECT_THROW(SegmentReader reader(path_), ParseError);
}

TEST_F(TsdbSegmentTest, CorruptedFooterCrcThrows) {
  writeSegment(path_, sampleSeries(), {});
  std::string bytes = readFileBytes();
  // Flip a byte inside the footer (just before the trailing
  // [u32 crc][u32 len]["ZSFT"] = 12 bytes).
  bytes[bytes.size() - 16] ^= 0x01;
  writeFileBytes(bytes);
  EXPECT_THROW(SegmentReader reader(path_), ParseError);
}

TEST_F(TsdbSegmentTest, GarbageFileThrows) {
  writeFileBytes("this is not a segment at all, not even close");
  EXPECT_THROW(SegmentReader reader(path_), ParseError);
}

TEST_F(TsdbSegmentTest, CorruptedBlockFailsOnReadNotOpen) {
  writeSegment(path_, sampleSeries(), {});
  std::string bytes = readFileBytes();
  // Damage the first data block (past the 5-byte file header) but leave
  // the footer intact: open succeeds, the strict column decode throws.
  bytes[6] = static_cast<char>(bytes[6] ^ 0xFF);
  bytes[7] = static_cast<char>(bytes[7] ^ 0xFF);
  bytes[8] = static_cast<char>(bytes[8] ^ 0xFF);
  writeFileBytes(bytes);
  SegmentReader reader(path_);
  ASSERT_FALSE(reader.entries().empty());
  bool anyThrew = false;
  for (const auto& entry : reader.entries()) {
    try {
      const auto windows = reader.readWindows(entry);
      // Decode may survive a flip that lands in slack bits; the damaged
      // first block must not silently produce the original data though.
      (void)windows;
    } catch (const ParseError&) {
      anyThrew = true;
    }
  }
  EXPECT_TRUE(anyThrew);
}

TEST_F(TsdbSegmentTest, ReaderWorksWhetherMappedOrBuffered) {
  writeSegment(path_, sampleSeries(), {});
  SegmentReader reader(path_);
  // mmap is expected on Linux; the assertion documents that the test
  // exercised the mapped path (the buffered path is covered by decode
  // sharing the same pointer-based code).
  EXPECT_TRUE(reader.mapped());
  EXPECT_FALSE(reader.entries().empty());
  for (const auto& entry : reader.entries()) {
    EXPECT_FALSE(reader.readWindows(entry).empty());
  }
}

// --- find() and the footer order -------------------------------------------

/// One block of a hand-built segment and the footer entry naming it.
struct HandBlock {
  SeriesKey key;
  Resolution resolution = Resolution::kFine;
  std::map<std::int64_t, Rollup> windows;
};

void putLittleEndian(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFU));
  }
}

void putString(std::string& out, const std::string& s) {
  putVarint(out, s.size());
  out += s;
}

/// Lays a segment out byte for byte as DESIGN.md §7 specifies, with one
/// footer entry per block in `blocks` order — an order writeSegment never
/// produces unless it is (key, resolution) order.  Returns the footer
/// entries in file order.
std::vector<SegmentEntry> writeHandBuiltSegment(
    const std::string& path, const std::vector<HandBlock>& blocks,
    const SegmentMeta& meta) {
  std::string file = "ZSSG";
  file.push_back('\x01');
  std::vector<SegmentEntry> footerEntries;
  for (const HandBlock& block : blocks) {
    SegmentEntry entry;
    entry.key = block.key;
    entry.resolution = block.resolution;
    entry.offset = file.size();
    entry.minWindow = block.windows.begin()->first;
    entry.maxWindow = block.windows.rbegin()->first;
    entry.windows = block.windows.size();
    std::vector<std::int64_t> indices;
    std::vector<double> mins;
    std::vector<double> maxs;
    std::vector<double> sums;
    std::vector<std::uint64_t> counts;
    for (const auto& [index, rollup] : block.windows) {
      indices.push_back(index);
      mins.push_back(rollup.min);
      maxs.push_back(rollup.max);
      sums.push_back(rollup.sum);
      counts.push_back(rollup.count);
    }
    encodeTimestamps(indices, file);
    encodeValues(mins, file);
    encodeValues(maxs, file);
    encodeValues(sums, file);
    encodeCounts(counts, file);
    entry.length = file.size() - entry.offset;
    footerEntries.push_back(entry);
  }
  std::string footer;
  putVarint(footer, footerEntries.size());
  for (const SegmentEntry& entry : footerEntries) {
    putString(footer, std::string(entry.key.jobName()));
    putVarint(footer, zigzag(entry.key.rank));
    putString(footer, std::string(entry.key.metricName()));
    footer.push_back(static_cast<char>(entry.resolution));
    putVarint(footer, entry.offset);
    putVarint(footer, entry.length);
    putVarint(footer, zigzag(entry.minWindow));
    putVarint(footer, zigzag(entry.maxWindow));
    putVarint(footer, entry.windows);
  }
  putLittleEndian(footer, std::bit_cast<std::uint64_t>(meta.fineWindowSeconds),
                  8);
  putVarint(footer, static_cast<std::uint64_t>(meta.coarseFactor));
  putVarint(footer, meta.walSeqCovered);
  putLittleEndian(footer, crc32(footer), 4);
  putLittleEndian(footer, footer.size(), 4);
  footer += "ZSFT";
  file += footer;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  return footerEntries;
}

/// The read path before the footer was indexed: every footer entry in
/// file order, merged window by window.
std::map<std::int64_t, Rollup> linearScan(
    const SegmentReader& reader, const std::vector<SegmentEntry>& footer,
    const SeriesKey& key, Resolution resolution) {
  std::map<std::int64_t, Rollup> merged;
  for (const SegmentEntry& entry : footer) {
    if (entry.key != key || entry.resolution != resolution) {
      continue;
    }
    for (const auto& [index, rollup] : reader.readWindows(entry)) {
      merged[index].combine(rollup);
    }
  }
  return merged;
}

TEST_F(TsdbSegmentTest, UnsortedFooterWithRepeatedEntryAnswersLikeALinearScan) {
  const SeriesKey a{"job", 0, "a"};
  const SeriesKey b{"job", 1, "b"};
  // Out of order, and (b, fine) three times.  Its window 4 gets sums 1,
  // 1 and 1e16 from the three blocks: folded in file order that is
  // 1e16 + 2, any other order rounds to 1e16, so a reordering of the
  // repeated entries shows in the answer.
  const std::vector<HandBlock> blocks = {
      {b, Resolution::kFine, {{3, rollupOf({0.25})}, {4, rollupOf({1.0})}}},
      {a, Resolution::kCoarse, {{0, rollupOf({5.0, 6.0})}}},
      {b, Resolution::kFine, {{4, rollupOf({1.0})}, {7, rollupOf({2.0})}}},
      {a, Resolution::kFine, {{1, rollupOf({5.0})}, {2, rollupOf({6.0})}}},
      {b, Resolution::kFine, {{4, rollupOf({1e16})}}},
  };
  SegmentMeta meta;
  meta.fineWindowSeconds = 1.0;
  meta.coarseFactor = 10;
  const std::vector<SegmentEntry> footer =
      writeHandBuiltSegment(path_, blocks, meta);

  SegmentReader reader(path_);
  ASSERT_EQ(reader.entries().size(), footer.size());  // repeats are kept
  EXPECT_TRUE(std::is_sorted(
      reader.entries().begin(), reader.entries().end(),
      [](const SegmentEntry& x, const SegmentEntry& y) {
        return std::tie(x.key, x.resolution) < std::tie(y.key, y.resolution);
      }));
  const SeriesKey absent{"job", 2, "a"};
  for (const SeriesKey& key : {a, b, absent}) {
    for (const Resolution res : {Resolution::kFine, Resolution::kCoarse}) {
      std::vector<std::uint64_t> want;  // block offsets, footer order
      for (const SegmentEntry& entry : footer) {
        if (entry.key == key && entry.resolution == res) {
          want.push_back(entry.offset);
        }
      }
      std::vector<std::uint64_t> got;
      for (const SegmentEntry& entry : reader.find(key, res)) {
        got.push_back(entry.offset);
      }
      EXPECT_EQ(got, want) << key.metric << " res "
                           << static_cast<int>(res);
    }
  }

  // The engine over this segment answers exactly as a linear scan.
  EngineOptions ro;
  ro.readOnly = true;
  Engine engine(dir_.string(), ro);
  EXPECT_EQ(engine.seriesKeys(), (std::vector<SeriesKey>{a, b}));
  for (const SeriesKey& key : {a, b, absent}) {
    for (const Resolution res : {Resolution::kFine, Resolution::kCoarse}) {
      const double width = res == Resolution::kFine ? 1.0 : 10.0;
      const auto want = linearScan(reader, footer, key, res);
      const auto got = engine.range(key, 0.0, 1e9, res);
      ASSERT_EQ(got.size(), want.size()) << key.metric;
      auto it = want.begin();
      for (const WindowRollup& row : got) {
        EXPECT_EQ(row.windowStartSeconds,
                  static_cast<double>(it->first) * width);
        EXPECT_EQ(row.rollup.min, it->second.min);
        EXPECT_EQ(row.rollup.max, it->second.max);
        EXPECT_EQ(row.rollup.sum, it->second.sum);
        EXPECT_EQ(row.rollup.count, it->second.count);
        ++it;
      }
      const auto newest = engine.latest(key, res);
      ASSERT_EQ(newest.has_value(), !want.empty());
      if (newest) {
        EXPECT_EQ(newest->windowStartSeconds,
                  static_cast<double>(want.rbegin()->first) * width);
        EXPECT_EQ(newest->rollup.sum, want.rbegin()->second.sum);
      }
    }
  }
  const auto window4 = engine.range(b, 4.0, 4.5);
  ASSERT_EQ(window4.size(), 1U);
  EXPECT_EQ(window4[0].rollup.sum, 1e16 + 2.0);
}

TEST_F(TsdbSegmentTest, BlockExtentWhoseEndWrapsIsRejectedAtOpen) {
  // One block entry at the first block byte with a length of 2^64 - 1:
  // offset + length wraps to 4, inside the file.  readWindows decodes
  // the mapped bytes in place, so open must refuse the extent.
  std::string file = "ZSSG";
  file.push_back('\x01');
  file += "block";
  std::string footer;
  putVarint(footer, 1);
  putString(footer, "job");
  putVarint(footer, zigzag(0));
  putString(footer, "m");
  footer.push_back(static_cast<char>(Resolution::kFine));
  putVarint(footer, 5);                      // offset
  putVarint(footer, ~std::uint64_t{0});      // length
  putVarint(footer, zigzag(0));              // minWindow
  putVarint(footer, zigzag(0));              // maxWindow
  putVarint(footer, 1);                      // windows
  putLittleEndian(footer, std::bit_cast<std::uint64_t>(1.0), 8);
  putVarint(footer, 10);                     // coarse factor
  putVarint(footer, 0);                      // WAL sequence covered
  putLittleEndian(footer, crc32(footer), 4);
  putLittleEndian(footer, footer.size(), 4);
  footer += "ZSFT";
  file += footer;
  writeFileBytes(file);
  EXPECT_THROW(SegmentReader reader(path_), ParseError);
}

}  // namespace
