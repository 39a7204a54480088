// Engine tests: the durable write path (WAL -> hot windows -> sealed
// segments), the full crash-recovery matrix with MetricsRegistry
// counters, retention, read-only mode, the offline query service, and
// the acceptance e2e — a ClusterJob whose aggregation daemon is
// hard-killed mid-run, restarted over the same data dir, and must end
// with every published record accounted for against a brute-force
// reference built from the ranks' own metric streams.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/query.hpp"
#include "aggregator/transport.hpp"
#include "cluster/job.hpp"
#include "common/error.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "topology/presets.hpp"
#include "trace/metrics.hpp"
#include "tsdb/engine.hpp"
#include "tsdb/segment.hpp"

using namespace zerosum;
using namespace zerosum::tsdb;
using zerosum::aggregator::runQuery;

namespace {

namespace fs = std::filesystem;

std::uint64_t metricValue(const char* name) {
  return trace::MetricsRegistry::instance().counter(name).value();
}

class TsdbEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("zs_engine_test_") + info->name() + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
    dir_ = (root_ / "data").string();
  }
  void TearDown() override { fs::remove_all(root_); }

  static std::vector<Sample> samplesAt(double t0, int n, double base) {
    std::vector<Sample> samples;
    for (int i = 0; i < n; ++i) {
      samples.push_back(
          {t0 + 0.1 * i, "cpu.util", base + static_cast<double>(i)});
    }
    return samples;
  }

  void truncateFile(const std::string& path, std::uint64_t size) const {
    std::ifstream in(path, std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(in), {});
    ASSERT_LE(size, bytes.size());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(size));
  }

  void flipByte(const std::string& path, std::uint64_t offset) const {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
  }

  [[nodiscard]] std::string walFile(int seq) const {
    char name[32];
    std::snprintf(name, sizeof(name), "wal-%08d.log", seq);
    return dir_ + "/" + name;
  }

  [[nodiscard]] std::string segmentFile(int seq) const {
    char name[40];
    std::snprintf(name, sizeof(name), "segment-%08d.zss", seq);
    return dir_ + "/" + name;
  }

  fs::path root_;
  std::string dir_;
};

TEST_F(TsdbEngineTest, BadOptionsThrow) {
  EngineOptions bad;
  bad.fineWindowSeconds = 0.0;
  EXPECT_THROW(Engine(dir_, bad), ConfigError);
  bad = {};
  bad.coarseFactor = 1;
  EXPECT_THROW(Engine(dir_, bad), ConfigError);
  bad = {};
  bad.maxSegments = 0;
  EXPECT_THROW(Engine(dir_, bad), ConfigError);
  bad = {};
  bad.walRotateBytes = 0;
  EXPECT_THROW(Engine(dir_, bad), ConfigError);
  // Read-only over a directory that does not exist is a state error, not
  // a silent empty store.
  EngineOptions ro;
  ro.readOnly = true;
  EXPECT_THROW(Engine((root_ / "absent").string(), ro), StateError);
}

TEST_F(TsdbEngineTest, EmptyDirStartsClean) {
  Engine engine(dir_);
  EXPECT_TRUE(engine.seriesKeys().empty());
  EXPECT_TRUE(engine.sources().empty());
  EXPECT_EQ(engine.segmentCount(), 0U);
  EXPECT_EQ(engine.counters().walReplayedBatches, 0U);
  EXPECT_EQ(engine.counters().walDamagedBytes, 0U);
  EXPECT_EQ(engine.counters().segmentsRejected, 0U);
  EXPECT_TRUE(engine.range({"j", 0, "m"}, 0.0, 100.0).empty());
  EXPECT_FALSE(engine.latest({"j", 0, "m"}).has_value());
}

TEST_F(TsdbEngineTest, AppendThenQueryHot) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  Engine engine(dir_, options);
  engine.append("job", 0, samplesAt(1.0, 5, 10.0));    // windows 1
  engine.append("job", 1, {{2.5, "mem.rss", 400.0}});  // window 2
  engine.append("job", 0, {{3.5, "cpu.util", 99.0}});  // window 3

  const auto keys = engine.seriesKeys();
  ASSERT_EQ(keys.size(), 2U);
  EXPECT_EQ(keys[0], (SeriesKey{"job", 0, "cpu.util"}));
  EXPECT_EQ(keys[1], (SeriesKey{"job", 1, "mem.rss"}));

  const auto windows = engine.range({"job", 0, "cpu.util"}, 0.0, 10.0);
  ASSERT_EQ(windows.size(), 2U);
  EXPECT_DOUBLE_EQ(windows[0].windowStartSeconds, 1.0);
  EXPECT_EQ(windows[0].rollup.count, 5U);
  EXPECT_DOUBLE_EQ(windows[0].rollup.min, 10.0);
  EXPECT_DOUBLE_EQ(windows[0].rollup.max, 14.0);
  EXPECT_DOUBLE_EQ(windows[1].rollup.max, 99.0);

  const auto newest = engine.latest({"job", 0, "cpu.util"});
  ASSERT_TRUE(newest.has_value());
  EXPECT_DOUBLE_EQ(newest->windowStartSeconds, 3.0);

  // Hostile samples are ignored, never stored, never thrown on.
  engine.append("job", 0, {{-5.0, "cpu.util", 1.0},
                           {1.0, "cpu.util", std::nan("")},
                           {std::nan(""), "cpu.util", 1.0}});
  EXPECT_EQ(engine.range({"job", 0, "cpu.util"}, 0.0, 10.0)[0].rollup.count,
            5U);
  EXPECT_EQ(engine.counters().batchesAppended, 4U);
  EXPECT_EQ(engine.counters().samplesAppended, 7U);
}

TEST_F(TsdbEngineTest, CompactServesFromDiskAndRotatesWal) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  Engine engine(dir_, options);
  engine.append("job", 0, samplesAt(1.0, 5, 10.0));
  const auto before = engine.range({"job", 0, "cpu.util"}, 0.0, 10.0);

  engine.compact();
  EXPECT_EQ(engine.segmentCount(), 1U);
  EXPECT_EQ(engine.counters().compactions, 1U);
  EXPECT_EQ(engine.walSizeBytes(), 0U);  // fresh WAL
  EXPECT_FALSE(fs::exists(walFile(1)));  // covered WAL deleted
  EXPECT_TRUE(fs::exists(walFile(2)));
  EXPECT_TRUE(fs::exists(segmentFile(1)));

  const auto after = engine.range({"job", 0, "cpu.util"}, 0.0, 10.0);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_DOUBLE_EQ(after[i].rollup.min, before[i].rollup.min);
    EXPECT_DOUBLE_EQ(after[i].rollup.max, before[i].rollup.max);
    EXPECT_DOUBLE_EQ(after[i].rollup.sum, before[i].rollup.sum);
    EXPECT_EQ(after[i].rollup.count, before[i].rollup.count);
  }
  // Compacting with nothing hot is a no-op.
  engine.compact();
  EXPECT_EQ(engine.segmentCount(), 1U);
}

TEST_F(TsdbEngineTest, WindowSplitAcrossCompactionRecombines) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  Engine engine(dir_, options);
  engine.append("job", 0, {{5.25, "m", 1.0}});
  engine.compact();
  engine.append("job", 0, {{5.75, "m", 3.0}});  // same fine window, hot

  const auto windows = engine.range({"job", 0, "m"}, 5.0, 6.0);
  ASSERT_EQ(windows.size(), 1U);
  EXPECT_EQ(windows[0].rollup.count, 2U);
  EXPECT_DOUBLE_EQ(windows[0].rollup.min, 1.0);
  EXPECT_DOUBLE_EQ(windows[0].rollup.max, 3.0);
  EXPECT_DOUBLE_EQ(windows[0].rollup.sum, 4.0);

  // And across two segments as well.
  engine.compact();
  engine.append("job", 0, {{5.5, "m", 2.0}});
  engine.compact();
  const auto merged = engine.range({"job", 0, "m"}, 5.0, 6.0);
  ASSERT_EQ(merged.size(), 1U);
  EXPECT_EQ(merged[0].rollup.count, 3U);
  EXPECT_DOUBLE_EQ(merged[0].rollup.sum, 6.0);
}

TEST_F(TsdbEngineTest, MaybeCompactHonoursThreshold) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  options.walRotateBytes = 512;
  Engine engine(dir_, options);
  engine.append("job", 0, {{1.0, "m", 1.0}});
  EXPECT_FALSE(engine.maybeCompact());
  for (int i = 0; i < 30; ++i) {
    engine.append("job", 0, samplesAt(static_cast<double>(i), 4, 1.0));
  }
  EXPECT_TRUE(engine.maybeCompact());
  EXPECT_GE(engine.segmentCount(), 1U);
  EXPECT_FALSE(engine.maybeCompact());  // fresh WAL is below threshold
}

TEST_F(TsdbEngineTest, SealRecoverRoundTrip) {
  SourceRecord source;
  source.job = "job";
  source.rank = 3;
  source.worldSize = 8;
  source.hostname = "node0003";
  source.pid = 4242;
  source.firstSeenSeconds = 1.0;
  source.lastSeenSeconds = 9.0;
  source.batches = 2;
  source.records = 7;

  std::vector<WindowRollup> written;
  {
    Engine engine(dir_);
    engine.append("job", 3, samplesAt(1.0, 5, 10.0));
    engine.append("job", 3, samplesAt(7.0, 2, -4.0));
    engine.noteSource(source);
    engine.seal();
    written = engine.range({"job", 3, "cpu.util"}, 0.0, 100.0);
  }

  Engine engine(dir_);
  // Everything was sealed into a segment: nothing left to replay.
  EXPECT_EQ(engine.counters().walReplayedBatches, 0U);
  EXPECT_EQ(engine.counters().walDamagedBytes, 0U);
  EXPECT_EQ(engine.segmentCount(), 1U);

  const auto recovered = engine.range({"job", 3, "cpu.util"}, 0.0, 100.0);
  ASSERT_EQ(recovered.size(), written.size());
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_DOUBLE_EQ(recovered[i].windowStartSeconds,
                     written[i].windowStartSeconds);
    EXPECT_DOUBLE_EQ(recovered[i].rollup.min, written[i].rollup.min);
    EXPECT_DOUBLE_EQ(recovered[i].rollup.max, written[i].rollup.max);
    EXPECT_DOUBLE_EQ(recovered[i].rollup.sum, written[i].rollup.sum);
    EXPECT_EQ(recovered[i].rollup.count, written[i].rollup.count);
  }
  const auto sources = engine.sources();
  ASSERT_EQ(sources.size(), 1U);
  EXPECT_EQ(sources[0], source);
}

TEST_F(TsdbEngineTest, UnsealedWalReplaysOnRecovery) {
  {
    EngineOptions options;
    options.fsync = FsyncPolicy::kOff;
    Engine engine(dir_, options);
    engine.append("job", 0, samplesAt(1.0, 3, 5.0));
    engine.append("job", 0, samplesAt(2.0, 3, 6.0));
    // No seal: the process dies here; the write()'d WAL bytes survive.
  }
  Engine engine(dir_);
  EXPECT_EQ(engine.counters().walReplayedBatches, 2U);
  EXPECT_EQ(engine.counters().walDamagedBytes, 0U);
  const auto windows = engine.range({"job", 0, "cpu.util"}, 0.0, 10.0);
  ASSERT_EQ(windows.size(), 2U);
  EXPECT_EQ(windows[0].rollup.count, 3U);
  EXPECT_EQ(windows[1].rollup.count, 3U);
}

TEST_F(TsdbEngineTest, RecoveryTruncatedOrTornWalTailKeepsPrefix) {
  // Cut at +3 bytes = mid-header of record 3; +12 = torn mid-payload.
  for (const std::uint64_t extra : {3ULL, 12ULL}) {
    fs::remove_all(dir_);
    std::uint64_t twoRecordsEnd = 0;
    {
      EngineOptions options;
      options.fsync = FsyncPolicy::kOff;
      Engine engine(dir_, options);
      engine.append("job", 0, samplesAt(1.0, 3, 5.0));
      engine.append("job", 0, samplesAt(2.0, 3, 6.0));
      twoRecordsEnd = engine.walSizeBytes();
      engine.append("job", 0, samplesAt(3.0, 3, 7.0));
    }
    truncateFile(walFile(1), twoRecordsEnd + extra);

    const auto truncationsBefore =
        metricValue("zs.tsdb.recovery.wal_truncations");
    Engine engine(dir_);
    EXPECT_EQ(metricValue("zs.tsdb.recovery.wal_truncations"),
              truncationsBefore + 1)
        << "cut +" << extra;
    EXPECT_EQ(engine.counters().walReplayedBatches, 2U);
    EXPECT_EQ(engine.counters().walDamagedBytes, extra);
    EXPECT_EQ(engine.counters().walRepairs, 1U);
    EXPECT_EQ(fs::file_size(walFile(1)), twoRecordsEnd);  // tail truncated

    // Windows 1 and 2 survived whole; window 3 is gone with its record.
    const auto windows = engine.range({"job", 0, "cpu.util"}, 0.0, 10.0);
    ASSERT_EQ(windows.size(), 2U) << "cut +" << extra;
    EXPECT_DOUBLE_EQ(windows[1].rollup.min, 6.0);

    // The repaired WAL accepts appends, and the whole thing survives
    // another restart cleanly.
    engine.append("job", 0, samplesAt(4.0, 1, 8.0));
    engine.seal();
    Engine again(dir_);
    EXPECT_EQ(again.counters().walDamagedBytes, 0U);
    EXPECT_EQ(again.range({"job", 0, "cpu.util"}, 0.0, 10.0).size(), 3U);
  }
}

TEST_F(TsdbEngineTest, RecoveryCorruptedCrcDropsSuffix) {
  std::uint64_t oneRecordEnd = 0;
  std::uint64_t fileEnd = 0;
  {
    EngineOptions options;
    options.fsync = FsyncPolicy::kOff;
    Engine engine(dir_, options);
    engine.append("job", 0, samplesAt(1.0, 3, 5.0));
    oneRecordEnd = engine.walSizeBytes();
    engine.append("job", 0, samplesAt(2.0, 3, 6.0));
    engine.append("job", 0, samplesAt(3.0, 3, 7.0));
    fileEnd = engine.walSizeBytes();
  }
  flipByte(walFile(1), oneRecordEnd + 10);  // inside record 2's payload

  const auto truncationsBefore =
      metricValue("zs.tsdb.recovery.wal_truncations");
  Engine engine(dir_);
  EXPECT_EQ(metricValue("zs.tsdb.recovery.wal_truncations"),
            truncationsBefore + 1);
  // Damage mid-file is never resynchronized past: record 3 drops too.
  EXPECT_EQ(engine.counters().walReplayedBatches, 1U);
  EXPECT_EQ(engine.counters().walDamagedBytes, fileEnd - oneRecordEnd);
  ASSERT_EQ(engine.range({"job", 0, "cpu.util"}, 0.0, 10.0).size(), 1U);
}

TEST_F(TsdbEngineTest, SegmentWithoutFooterIsDroppedWholeAndCounted) {
  {
    EngineOptions options;
    options.fsync = FsyncPolicy::kOff;
    Engine engine(dir_, options);
    engine.append("job", 0, samplesAt(1.0, 4, 5.0));
    engine.seal();
  }
  // Chop the footer off the sealed segment — an interrupted write can
  // never produce this (rename is the commit point), but disk damage can.
  truncateFile(segmentFile(1), fs::file_size(segmentFile(1)) - 20);

  const auto droppedBefore = metricValue("zs.tsdb.recovery.segments_dropped");
  Engine engine(dir_);
  EXPECT_EQ(metricValue("zs.tsdb.recovery.segments_dropped"),
            droppedBefore + 1);
  EXPECT_EQ(engine.counters().segmentsRejected, 1U);
  EXPECT_EQ(engine.segmentCount(), 0U);
  EXPECT_TRUE(engine.seriesKeys().empty());  // dropped whole, by design

  // The engine is still usable, and a new seal writes a fresh segment
  // with a higher sequence (the damaged file is never overwritten).
  engine.append("job", 0, {{9.0, "m", 1.0}});
  engine.seal();
  EXPECT_EQ(engine.segmentCount(), 1U);
  EXPECT_TRUE(fs::exists(segmentFile(2)));
}

TEST_F(TsdbEngineTest, SegmentWithInvalidWindowWidthsIsRejectedNotAdopted) {
  {
    EngineOptions options;
    options.fsync = FsyncPolicy::kOff;
    Engine engine(dir_, options);
    engine.append("job", 0, samplesAt(1.0, 3, 5.0));
    // No seal: the WAL must replay with sane widths.
  }
  std::map<SeriesKey, SeriesWindows> windows;
  windows[{"job", 0, "cpu.util"}].fine.findOrInsert(1).first->merge(1.0);
  struct Widths {
    double fine;
    int factor;
  };
  for (const Widths bad : {Widths{1.0, 0}, Widths{1.0, 1}, Widths{0.0, 10},
                           Widths{-1.0, 10}, Widths{std::nan(""), 10}}) {
    SCOPED_TRACE(std::to_string(bad.fine) + " x" + std::to_string(bad.factor));
    // CRC-valid: writeSegment stores whatever meta it is given.
    SegmentMeta meta;
    meta.fineWindowSeconds = bad.fine;
    meta.coarseFactor = bad.factor;
    writeSegment(segmentFile(7), windows, meta);
    EXPECT_THROW(SegmentReader{segmentFile(7)}, ParseError);

    EngineOptions ro;
    ro.readOnly = true;
    Engine engine(dir_, ro);  // a zero factor used to divide by zero here
    EXPECT_EQ(engine.counters().segmentsRejected, 1U);
    EXPECT_EQ(engine.segmentCount(), 0U);
    EXPECT_EQ(engine.options().coarseFactor, EngineOptions{}.coarseFactor);
    EXPECT_EQ(engine.options().fineWindowSeconds,
              EngineOptions{}.fineWindowSeconds);
    const auto replayed = engine.range({"job", 0, "cpu.util"}, 0.0, 10.0);
    ASSERT_EQ(replayed.size(), 1U);
    EXPECT_EQ(replayed[0].rollup.count, 3U);
  }
}

TEST_F(TsdbEngineTest, DamagedNewestBlockFailsOnlyItsSeriesReads) {
  const SeriesKey damaged{"job", 0, "cpu.util"};
  const SeriesKey intact{"job", 1, "cpu.util"};
  {
    EngineOptions options;
    options.fsync = FsyncPolicy::kOff;
    Engine engine(dir_, options);
    engine.append("job", 0, samplesAt(1.0, 3, 5.0));
    engine.append("job", 1, samplesAt(1.0, 3, 7.0));
    engine.compact();
    engine.append("job", 0, samplesAt(4.0, 3, 6.0));
    engine.append("job", 1, samplesAt(4.0, 3, 8.0));
    engine.seal();
    ASSERT_EQ(engine.segmentCount(), 2U);
  }
  // The damaged series' newest fine window lives in segment 2.  Its
  // block's first byte is the window count, so the flip makes the block
  // decode to the wrong number of windows (or not at all); the footer
  // CRC does not cover blocks, so the segment still opens.
  std::uint64_t blockOffset = 0;
  {
    SegmentReader segment(segmentFile(2));
    const auto entries = segment.find(damaged, Resolution::kFine);
    ASSERT_EQ(entries.size(), 1U);
    EXPECT_EQ(entries[0].maxWindow, 4);
    blockOffset = entries[0].offset;
  }
  flipByte(segmentFile(2), blockOffset);

  EngineOptions ro;
  ro.readOnly = true;
  std::optional<Engine> opened;
  ASSERT_NO_THROW(opened.emplace(dir_, ro));
  const Engine& engine = *opened;
  EXPECT_EQ(engine.segmentCount(), 2U);
  EXPECT_EQ(engine.seriesKeys(), (std::vector<SeriesKey>{damaged, intact}));
  EXPECT_THROW(engine.range(damaged, 0.0, 100.0), ParseError);
  EXPECT_THROW(engine.latest(damaged), ParseError);

  const auto rows = engine.range(intact, 0.0, 100.0);
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[1].rollup.count, 3U);
  const auto newest = engine.latest(intact);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->windowStartSeconds, 4.0);
  EXPECT_EQ(newest->rollup.max, 10.0);

  const json::Value all =
      json::parse(runQuery(engine, R"({"op":"snapshot","job":"job"})"));
  EXPECT_NE(all.find("error"), nullptr);
  const json::Value one =
      json::parse(runQuery(engine, R"({"op":"snapshot","rank":1})"));
  ASSERT_EQ(one.find("error"), nullptr);
  const auto& series = one.find("series")->asArray();
  ASSERT_EQ(series.size(), 1U);
  EXPECT_EQ(series[0].find("fine")->numberOr("max", -1.0), 10.0);
}

TEST_F(TsdbEngineTest, CorruptRegistryLosesOnlySourceMetadata) {
  {
    Engine engine(dir_);
    engine.append("job", 0, samplesAt(1.0, 2, 5.0));
    SourceRecord source;
    source.job = "job";
    source.rank = 0;
    engine.noteSource(source);
    engine.seal();
  }
  {
    std::ofstream out(dir_ + "/registry.json", std::ios::trunc);
    out << "{ this is not json";
  }
  const auto droppedBefore = metricValue("zs.tsdb.recovery.registry_dropped");
  Engine engine(dir_);
  EXPECT_EQ(metricValue("zs.tsdb.recovery.registry_dropped"),
            droppedBefore + 1);
  EXPECT_TRUE(engine.sources().empty());
  // ...but never samples.
  EXPECT_EQ(engine.range({"job", 0, "cpu.util"}, 0.0, 10.0).size(), 1U);
}

TEST_F(TsdbEngineTest, RetentionDropsOldestSegments) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  options.maxSegments = 2;
  Engine engine(dir_, options);
  for (int round = 0; round < 5; ++round) {
    engine.append("job", 0,
                  {{static_cast<double>(round) + 0.5, "m",
                    static_cast<double>(round)}});
    engine.compact();
  }
  EXPECT_EQ(engine.segmentCount(), 2U);
  EXPECT_EQ(engine.counters().segmentsDropped, 3U);
  // Newest two rounds remain; the oldest three are gone from disk.
  const auto windows = engine.range({"job", 0, "m"}, 0.0, 100.0);
  ASSERT_EQ(windows.size(), 2U);
  EXPECT_DOUBLE_EQ(windows[0].rollup.min, 3.0);
  EXPECT_DOUBLE_EQ(windows[1].rollup.min, 4.0);
}

TEST_F(TsdbEngineTest, CompactionAfterReopenDeletesOnlyTheWalsRecoveryLeft) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  {
    Engine engine(dir_, options);
    for (int round = 0; round < 3; ++round) {
      engine.append("job", 0, samplesAt(round + 1.0, 2, 1.0));
      engine.compact();  // covers wal-<round + 1>
    }
    engine.append("job", 0, samplesAt(5.0, 2, 1.0));  // wal-4, unsealed
  }
  Engine engine(dir_, options);
  EXPECT_EQ(engine.counters().walReplayedBatches, 1U);
  ASSERT_TRUE(fs::exists(walFile(4)));
  // A file named like a WAL below the oldest one recovery left is none
  // the engine wrote since: compaction deletes from wal-4 on, not from 1.
  std::ofstream(walFile(1)) << "not a wal of this engine";
  engine.append("job", 0, samplesAt(6.0, 2, 1.0));
  engine.compact();
  EXPECT_FALSE(fs::exists(walFile(4)));
  EXPECT_TRUE(fs::exists(walFile(5)));
  EXPECT_TRUE(fs::exists(walFile(1)));
  // Past the first compaction only the active WAL is ever covered.
  engine.append("job", 0, samplesAt(7.0, 2, 1.0));
  engine.compact();
  EXPECT_FALSE(fs::exists(walFile(5)));
  EXPECT_TRUE(fs::exists(walFile(6)));
  EXPECT_TRUE(fs::exists(walFile(1)));
  EXPECT_EQ(engine.range({"job", 0, "cpu.util"}, 0.0, 100.0).size(), 6U);
}

TEST_F(TsdbEngineTest, CompactionRetriesACoveredWalItCouldNotDelete) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  Engine engine(dir_, options);
  engine.append("job", 0, samplesAt(1.0, 2, 1.0));
  // The open WAL keeps writing to its moved inode; a non-empty directory
  // in its place makes the covered WAL's unlink fail.
  fs::rename(walFile(1), walFile(1) + ".moved");
  fs::create_directory(walFile(1));
  std::ofstream(walFile(1) + "/pin") << "x";
  engine.compact();
  ASSERT_TRUE(fs::exists(walFile(1)));
  fs::remove(walFile(1) + "/pin");
  engine.append("job", 0, samplesAt(2.0, 2, 1.0));
  engine.compact();  // retries wal-1 before wal-2
  EXPECT_FALSE(fs::exists(walFile(1)));
  EXPECT_FALSE(fs::exists(walFile(2)));
  // Past the retry, deletion starts at the active WAL again.
  std::ofstream(walFile(1)) << "not a wal of this engine";
  engine.append("job", 0, samplesAt(3.0, 2, 1.0));
  engine.compact();
  EXPECT_FALSE(fs::exists(walFile(3)));
  EXPECT_TRUE(fs::exists(walFile(1)));
  EXPECT_EQ(engine.range({"job", 0, "cpu.util"}, 0.0, 100.0).size(), 3U);
}

TEST_F(TsdbEngineTest, ReadOnlyRecoversWithoutMutating) {
  std::uint64_t twoRecordsEnd = 0;
  std::uint64_t damagedSize = 0;
  {
    EngineOptions options;
    options.fsync = FsyncPolicy::kOff;
    options.fineWindowSeconds = 0.5;  // non-default: the reader must adopt
    options.coarseFactor = 4;
    Engine engine(dir_, options);
    engine.append("job", 0, samplesAt(1.0, 4, 5.0));
    engine.seal();  // segment 1 carries the widths
    engine.append("job", 0, samplesAt(6.0, 2, 9.0));
    twoRecordsEnd = engine.walSizeBytes();
  }
  // Damage the WAL tail; a read-only open must not repair it.
  {
    std::ofstream out(walFile(2), std::ios::binary | std::ios::app);
    out.write("torn", 4);
  }
  damagedSize = fs::file_size(walFile(2));

  EngineOptions ro;
  ro.readOnly = true;
  Engine reader(dir_, ro);
  EXPECT_DOUBLE_EQ(reader.options().fineWindowSeconds, 0.5);
  EXPECT_EQ(reader.options().coarseFactor, 4);
  EXPECT_EQ(reader.counters().walReplayedBatches, 1U);
  EXPECT_EQ(reader.counters().walDamagedBytes, 4U);
  EXPECT_EQ(reader.counters().walRepairs, 0U);
  EXPECT_EQ(fs::file_size(walFile(2)), damagedSize);  // untouched
  (void)twoRecordsEnd;

  // Disk + replayed-WAL data both answer, indexed by the adopted widths:
  // one 0.5 s window from the segment, one replayed from the WAL.
  EXPECT_EQ(reader.range({"job", 0, "cpu.util"}, 0.0, 100.0).size(), 2U);
  EXPECT_THROW(reader.append("job", 0, {{1.0, "m", 1.0}}), StateError);
  EXPECT_THROW(reader.compact(), StateError);
  reader.seal();  // no-op, must not write anything
  EXPECT_FALSE(fs::exists(walFile(3)));
}

TEST_F(TsdbEngineTest, OfflineQueryAnswersAllOps) {
  {
    Engine engine(dir_);
    engine.append("job", 0, samplesAt(1.0, 5, 10.0));
    engine.append("job", 1, {{2.5, "mem.rss", 400.0}});
    SourceRecord source;
    source.job = "job";
    source.rank = 0;
    source.hostname = "node0000";
    source.records = 5;
    engine.noteSource(source);
    engine.seal();
  }
  EngineOptions ro;
  ro.readOnly = true;
  Engine engine(dir_, ro);

  const json::Value sources =
      json::parse(runQuery(engine, R"({"op":"sources"})"));
  ASSERT_EQ(sources.find("sources")->asArray().size(), 1U);
  EXPECT_EQ(sources.find("sources")->asArray()[0].stringOr("hostname", ""),
            "node0000");

  const json::Value snap =
      json::parse(runQuery(engine, R"({"op":"snapshot","rank":0})"));
  const auto& series = snap.find("series")->asArray();
  ASSERT_EQ(series.size(), 1U);
  EXPECT_EQ(series[0].stringOr("metric", ""), "cpu.util");
  EXPECT_DOUBLE_EQ(series[0].find("fine")->numberOr("max", -1.0), 14.0);

  const json::Value range = json::parse(runQuery(
      engine,
      R"({"op":"range","metric":"cpu.util","job":"job","rank":0,"t0":0,"t1":60})"));
  const auto& windows = range.find("windows")->asArray();
  ASSERT_EQ(windows.size(), 1U);
  EXPECT_DOUBLE_EQ(windows[0].numberOr("count", 0.0), 5.0);

  const json::Value stats =
      json::parse(runQuery(engine, R"({"op":"stats"})"));
  EXPECT_GE(stats.numberOr("segments", -1.0), 1.0);

  // Hostile input: always an error object, never a throw.
  EXPECT_NE(runQuery(engine, "{{{").find("error"), std::string::npos);
  EXPECT_NE(runQuery(engine, R"({"op":"nope"})").find("error"),
            std::string::npos);
  EXPECT_NE(runQuery(engine, R"({"op":"range"})").find("error"),
            std::string::npos);
  EXPECT_NE(runQuery(engine, "[1]").find("error"), std::string::npos);
}

TEST_F(TsdbEngineTest, OfflineQueryRejectsARankOutsideInt) {
  {
    Engine engine(dir_);
    engine.append("job", 0, samplesAt(1.0, 2, 10.0));
    engine.seal();
  }
  EngineOptions ro;
  ro.readOnly = true;
  Engine engine(dir_, ro);
  for (const char* rank : {"1e300", "-1e300", "2147483648", "-2147483649"}) {
    const std::string snapshot =
        runQuery(engine, std::string(R"({"op":"snapshot","rank":)") + rank +
                             "}");
    EXPECT_NE(snapshot.find("error"), std::string::npos) << rank;
    const std::string range = runQuery(
        engine, std::string(R"({"op":"range","metric":"cpu.util","rank":)") +
                    rank + "}");
    EXPECT_NE(range.find("error"), std::string::npos) << rank;
  }
  // The int range's ends are still ranks.
  const json::Value edge = json::parse(
      runQuery(engine, R"({"op":"snapshot","rank":-2147483648})"));
  EXPECT_TRUE(edge.find("series")->asArray().empty());
}

TEST_F(TsdbEngineTest, OutOfRangeTimeBoundsSelectTheWholeHistory) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  Engine engine(dir_, options);
  const SeriesKey key{"job", 0, "m"};
  engine.append("job", 0, {{1.5, "m", 1.0}, {2.5, "m", 2.0}});
  engine.compact();
  engine.append("job", 0, {{3.5, "m", 3.0}});  // one window stays hot
  ASSERT_EQ(engine.range(key, 0.0, 1e18).size(), 3U);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine.range(key, 0.0, 1e300).size(), 3U);
  EXPECT_EQ(engine.range(key, -1e300, 1e18).size(), 3U);
  EXPECT_EQ(engine.range(key, -inf, inf).size(), 3U);
  EXPECT_EQ(engine.range(key, 0.0, 1e300, Resolution::kCoarse).size(), 1U);
  EXPECT_TRUE(engine.range(key, std::nan(""), 10.0).empty());
  EXPECT_TRUE(engine.range(key, 0.0, std::nan("")).empty());
}

TEST_F(TsdbEngineTest, UnindexableTimesAreDroppedLikeTheStoreDropsThem) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  const SeriesKey key{"job", 0, "m"};
  {
    Engine engine(dir_, options);
    const std::uint64_t generation = engine.dataGeneration();
    engine.append("job", 0,
                  {{1e300, "m", 1.0},
                   {std::numeric_limits<double>::max(), "m", 2.0}});
    EXPECT_EQ(engine.dataGeneration(), generation);
    EXPECT_EQ(engine.counters().samplesAppended, 0U);
    EXPECT_TRUE(engine.seriesKeys().empty());
    // Far in the future but indexable: kept.
    engine.append("job", 0, {{1e15, "m", 3.0}});
    EXPECT_GT(engine.dataGeneration(), generation);
    ASSERT_TRUE(engine.latest(key).has_value());
    EXPECT_EQ(engine.latest(key)->windowStartSeconds, 1e15);
  }
  // WAL replay drops the same records.
  EngineOptions ro;
  ro.readOnly = true;
  Engine engine(dir_, ro);
  EXPECT_EQ(engine.counters().walReplayedBatches, 2U);
  EXPECT_EQ(engine.counters().samplesAppended, 1U);
  const auto windows = engine.range(key, 0.0, 1e300);
  ASSERT_EQ(windows.size(), 1U);
  EXPECT_EQ(windows[0].rollup.count, 1U);
  EXPECT_EQ(windows[0].rollup.sum, 3.0);
}

TEST_F(TsdbEngineTest, SeriesKeysFollowRetentionAndTheHotState) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  options.maxSegments = 2;
  Engine engine(dir_, options);
  const SeriesKey gone{"job", 0, "gone"};
  const SeriesKey kept{"job", 0, "kept"};
  const SeriesKey hot{"job", 1, "hot"};
  engine.append("job", 0, {{0.5, "gone", 1.0}});
  engine.compact();  // segment 1 holds the only copy of `gone`
  engine.append("job", 0, {{1.5, "kept", 1.0}});
  engine.compact();
  EXPECT_EQ(engine.seriesKeys(), (std::vector<SeriesKey>{gone, kept}));
  engine.append("job", 0, {{2.5, "kept", 2.0}});
  engine.compact();  // retention drops segment 1
  EXPECT_EQ(engine.counters().segmentsDropped, 1U);
  EXPECT_EQ(engine.seriesKeys(), (std::vector<SeriesKey>{kept}));
  EXPECT_TRUE(engine.range(gone, 0.0, 100.0).empty());
  engine.append("job", 1, {{3.5, "hot", 1.0}});
  EXPECT_EQ(engine.seriesKeys(), (std::vector<SeriesKey>{kept, hot}));

  // `hot` goes idle while `other` keeps the engine compacting.  After two
  // idle compactions retention drops its only segment, and its emptied
  // hot buffers must not keep it listed.
  const SeriesKey other{"job", 1, "other"};
  engine.compact();
  engine.append("job", 1, {{4.5, "other", 1.0}});
  engine.compact();
  EXPECT_EQ(engine.seriesKeys(), (std::vector<SeriesKey>{hot, other}));
  engine.append("job", 1, {{5.5, "other", 2.0}});
  engine.compact();
  EXPECT_EQ(engine.seriesKeys(), (std::vector<SeriesKey>{other}));
  std::vector<SeriesKey> visited;
  engine.forEachNewest(std::nullopt, std::nullopt,
                       [&](const SeriesKey& key, const NewestWindows&) {
                         visited.push_back(key);
                       });
  EXPECT_EQ(visited, (std::vector<SeriesKey>{other}));
  EXPECT_FALSE(engine.latest(hot).has_value());
  EXPECT_TRUE(engine.range(hot, 0.0, 100.0).empty());
}

TEST_F(TsdbEngineTest, RecordsWithoutANameAreNeitherLoggedNorMerged) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  {
    Engine engine(dir_, options);
    // kInvalidId is the interner's answer when its table is full.
    const std::vector<aggregator::IdRecord> records = {
        {1.5, names::kInvalidId, 1.0}, {1.5, names::intern("m"), 2.0}};
    engine.append(names::intern("job"), 0, records);
    // Nor is any record of a batch whose job has no name.
    engine.append(names::kInvalidId, 1, records);
    EXPECT_EQ(engine.counters().samplesAppended, 1U);
    EXPECT_EQ(engine.counters().batchesAppended, 1U);
    EXPECT_EQ(engine.seriesKeys(), (std::vector<SeriesKey>{{"job", 0, "m"}}));
  }
  const WalReadResult wal = readWal(walFile(1));
  ASSERT_EQ(wal.batches.size(), 1U);
  ASSERT_EQ(wal.batches[0].samples.size(), 1U);
  EXPECT_EQ(wal.batches[0].samples[0].metric, "m");
  EXPECT_EQ(wal.batches[0].samples[0].value, 2.0);
}

// --- read path against a brute-force reference -----------------------------

namespace reads {

/// One series' windows at both resolutions, held in std::maps.
struct ModelWindows {
  std::map<std::int64_t, aggregator::Rollup> fine;
  std::map<std::int64_t, aggregator::Rollup> coarse;
};

/// Every appended sample, rolled up the way the engine windows them.
using Reference = std::map<SeriesKey, ModelWindows>;

void expectRows(const std::vector<WindowRollup>& rows,
                const std::map<std::int64_t, aggregator::Rollup>& windows,
                std::int64_t first, std::int64_t last, double width) {
  auto it = windows.lower_bound(first);
  for (const WindowRollup& row : rows) {
    ASSERT_TRUE(it != windows.end() && it->first <= last)
        << "extra window at " << row.windowStartSeconds;
    EXPECT_EQ(row.windowStartSeconds, static_cast<double>(it->first) * width);
    EXPECT_EQ(row.windowSeconds, width);
    EXPECT_EQ(row.rollup.min, it->second.min);
    EXPECT_EQ(row.rollup.max, it->second.max);
    EXPECT_EQ(row.rollup.sum, it->second.sum);  // integer values: exact
    EXPECT_EQ(row.rollup.count, it->second.count);
    ++it;
  }
  EXPECT_TRUE(it == windows.end() || it->first > last) << "missing windows";
}

void expectReadsMatch(const Engine& engine, const Reference& reference,
                      std::mt19937& rng) {
  std::vector<SeriesKey> keys;
  for (const auto& [key, windows] : reference) {
    keys.push_back(key);
  }
  EXPECT_EQ(engine.seriesKeys(), keys);
  std::uniform_real_distribution<double> time(0.0, 70.0);
  for (const auto& [key, series] : reference) {
    for (const Resolution res : {Resolution::kFine, Resolution::kCoarse}) {
      const auto& windows =
          res == Resolution::kFine ? series.fine : series.coarse;
      const double width =
          res == Resolution::kFine
              ? 1.0
              : static_cast<double>(engine.options().coarseFactor);
      expectRows(engine.range(key, 0.0, 1e9, res), windows,
                 std::numeric_limits<std::int64_t>::min(),
                 std::numeric_limits<std::int64_t>::max(), width);
      double t0 = time(rng);
      double t1 = time(rng);
      if (t1 < t0) {
        std::swap(t0, t1);
      }
      expectRows(engine.range(key, t0, t1, res), windows,
                 static_cast<std::int64_t>(std::floor(t0 / width)),
                 static_cast<std::int64_t>(std::floor(t1 / width)), width);
      const auto newest = engine.latest(key, res);
      ASSERT_TRUE(newest.has_value()) << key.metric;
      EXPECT_EQ(newest->windowStartSeconds,
                static_cast<double>(windows.rbegin()->first) * width);
      EXPECT_EQ(newest->rollup.sum, windows.rbegin()->second.sum);
      EXPECT_EQ(newest->rollup.count, windows.rbegin()->second.count);
    }
  }
  EXPECT_TRUE(engine.range({"job", 99, "cpu.util"}, 0.0, 1e9).empty());
  EXPECT_FALSE(engine.latest({"job", 99, "cpu.util"}).has_value());
}

}  // namespace reads

TEST_F(TsdbEngineTest, ReadsMatchBruteForceAcrossCompactionsAndReopen) {
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  options.coarseFactor = 4;
  std::mt19937 rng(20261017U);
  std::uniform_int_distribution<int> rankOf(0, 4);
  std::uniform_int_distribution<int> valueOf(0, 999);
  std::uniform_real_distribution<double> lateness(0.0, 6.0);
  const std::vector<std::string> metrics = {"cpu.util", "mem.rss",
                                            "gpu.busy", "io.read"};
  std::uniform_int_distribution<std::size_t> metricOf(0, metrics.size() - 1);
  reads::Reference reference;
  const auto add = [&](std::vector<Sample>& samples, int rank, double t,
                       const std::string& metric) {
    // Integer values keep every sum exact whatever order the engine
    // folds split windows in.
    const auto value = static_cast<double>(valueOf(rng));
    samples.push_back({t, metric, value});
    reads::ModelWindows& windows = reference[{"job", rank, metric}];
    const auto fine = static_cast<std::int64_t>(std::floor(t));
    windows.fine[fine].merge(value);
    windows.coarse[fine / options.coarseFactor].merge(value);
  };
  {
    Engine engine(dir_, options);
    double clock = 0.0;
    constexpr int kRounds = 10;
    for (int round = 0; round < kRounds; ++round) {
      for (int batch = 0; batch < 12; ++batch) {
        clock += 0.5;
        const int rank = rankOf(rng);
        std::vector<Sample> samples;
        for (int i = 0; i < 6; ++i) {
          // Up to 6 s late, so windows split across segments and the
          // hot state.
          add(samples, rank, std::max(0.0, clock - lateness(rng)),
              metrics[metricOf(rng)]);
        }
        if (round == 0 && batch == 0) {
          add(samples, rank, clock, "first.segment.only");
        }
        if (round == kRounds - 1 && batch == 0) {
          add(samples, rank, clock, "hot.only");
        }
        engine.append("job", rank, samples);
      }
      if (round < kRounds - 1) {
        engine.compact();
      }
    }
    ASSERT_EQ(engine.counters().compactions, kRounds - 1U);
    reads::expectReadsMatch(engine, reference, rng);
  }  // no seal: the last round lives only in the WAL
  EngineOptions ro;
  ro.readOnly = true;
  Engine reopened(dir_, ro);
  EXPECT_GT(reopened.counters().walReplayedBatches, 0U);
  reads::expectReadsMatch(reopened, reference, rng);
}

// --- the newest-window index against range() -------------------------------

namespace newest {

void expectSameBits(double actual, double expected, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << field << " " << actual << " vs " << expected;
}

void expectSameWindow(const std::optional<WindowRollup>& actual,
                      const std::optional<WindowRollup>& expected) {
  ASSERT_EQ(actual.has_value(), expected.has_value());
  if (!actual) {
    return;
  }
  expectSameBits(actual->windowStartSeconds, expected->windowStartSeconds,
                 "start");
  expectSameBits(actual->windowSeconds, expected->windowSeconds, "width");
  expectSameBits(actual->rollup.min, expected->rollup.min, "min");
  expectSameBits(actual->rollup.max, expected->rollup.max, "max");
  expectSameBits(actual->rollup.sum, expected->rollup.sum, "sum");
  EXPECT_EQ(actual->rollup.count, expected->rollup.count);
}

/// latest() is the last row of a whole-history range(), bit for bit, and
/// forEachNewest() visits exactly seriesKeys()' slice with latest()'s
/// answers.
void expectIndexMatchesRange(const Engine& engine,
                             const std::vector<std::string>& jobs,
                             const std::vector<int>& ranks) {
  const std::vector<SeriesKey> keys = engine.seriesKeys();
  for (const SeriesKey& key : keys) {
    SCOPED_TRACE(std::string(key.jobName()) + "/" + std::to_string(key.rank) +
                 "/" + std::string(key.metricName()));
    bool held = false;
    for (const Resolution res : {Resolution::kFine, Resolution::kCoarse}) {
      const auto rows = engine.range(key, 0.0, 1e9, res);
      held = held || !rows.empty();
      expectSameWindow(engine.latest(key, res),
                       rows.empty() ? std::nullopt
                                    : std::optional<WindowRollup>(rows.back()));
    }
    EXPECT_TRUE(held) << "a listed key with no windows";
  }
  std::vector<std::optional<std::string>> jobSlices = {std::nullopt, "absent"};
  jobSlices.insert(jobSlices.end(), jobs.begin(), jobs.end());
  std::vector<std::optional<int>> rankSlices = {std::nullopt, 99};
  rankSlices.insert(rankSlices.end(), ranks.begin(), ranks.end());
  for (const auto& job : jobSlices) {
    for (const auto& rank : rankSlices) {
      std::vector<SeriesKey> expected;
      for (const SeriesKey& key : keys) {
        if ((!job || key.jobName() == *job) && (!rank || key.rank == *rank)) {
          expected.push_back(key);
        }
      }
      std::vector<SeriesKey> visited;
      engine.forEachNewest(
          job, rank, [&](const SeriesKey& key, const NewestWindows& windows) {
            visited.push_back(key);
            expectSameWindow(windows.fine, engine.latest(key));
            expectSameWindow(windows.coarse,
                             engine.latest(key, Resolution::kCoarse));
          });
      EXPECT_EQ(visited, expected)
          << "job " << job.value_or("*") << " rank "
          << (rank ? std::to_string(*rank) : "*");
    }
  }
}

}  // namespace newest

TEST_F(TsdbEngineTest, NewestIndexMatchesRangeAcrossSeedsRetentionAndReopen) {
  // Non-integer values make a re-associated sum visible; samples up to
  // 6 s late, and rounds of 1 to 5 s between compactions, split windows
  // (8 s coarse ones above all) across the hot state and up to all of
  // the two or three live segments: a sum folded in another order than
  // range()'s shows once three parts meet.  Retention then drops
  // segments that hold series' newest windows, or a series' only
  // windows.  "job" is a prefix of "jobs", so a job's key range must end
  // at its own name.
  const std::vector<std::string> jobs = {"job", "jobs", "zz"};
  const std::vector<int> ranks = {0, 1};
  const std::vector<std::string> metrics = {"cpu.util", "mem.rss", "gpu.busy",
                                            "io.read", "net.tx"};
  for (unsigned seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fs::remove_all(dir_);
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> jobOf(0, jobs.size() - 1);
    std::uniform_int_distribution<std::size_t> rankOf(0, ranks.size() - 1);
    std::uniform_int_distribution<std::size_t> metricOf(0, metrics.size() - 1);
    std::uniform_real_distribution<double> valueOf(0.0, 1000.0);
    std::uniform_real_distribution<double> lateness(0.0, 6.0);
    std::uniform_int_distribution<int> batchesOf(4, 20);
    EngineOptions options;
    options.fsync = FsyncPolicy::kOff;
    options.coarseFactor = 8;
    options.maxSegments = 2 + static_cast<int>(seed % 2);
    double clock = 0.0;
    const auto appendRound = [&](Engine& engine, int round) {
      const int batches = batchesOf(rng);
      for (int batch = 0; batch < batches; ++batch) {
        clock += 0.25;
        std::vector<Sample> samples;
        for (int i = 0; i < 6; ++i) {
          samples.push_back({std::max(0.0, clock - lateness(rng)),
                             metrics[metricOf(rng)], valueOf(rng)});
        }
        if (batch == 0) {
          // Lives in this round's segment only, until retention drops it.
          samples.push_back({clock, "round." + std::to_string(round),
                             valueOf(rng)});
        }
        engine.append(jobs[jobOf(rng)], ranks[rankOf(rng)], samples);
      }
    };
    const auto rounds = [&](Engine& engine, int first, int last) {
      for (int round = first; round < last; ++round) {
        appendRound(engine, round);
        newest::expectIndexMatchesRange(engine, jobs, ranks);
        engine.compact();
        newest::expectIndexMatchesRange(engine, jobs, ranks);
      }
    };
    {
      Engine engine(dir_, options);
      rounds(engine, 0, 6);
      EXPECT_GT(engine.counters().segmentsDropped, 0U);
      appendRound(engine, 6);  // no compaction: this round stays in the WAL
    }
    {
      // Reopened: the index is rebuilt from the footers, the WAL replays
      // into the hot state, and compaction and retention go on.
      Engine engine(dir_, options);
      newest::expectIndexMatchesRange(engine, jobs, ranks);
      rounds(engine, 7, 10);
      appendRound(engine, 10);
    }
    EngineOptions ro;
    ro.readOnly = true;
    Engine reopened(dir_, ro);
    EXPECT_GT(reopened.counters().walReplayedBatches, 0U);
    newest::expectIndexMatchesRange(reopened, jobs, ranks);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// --- the acceptance e2e: hard kill mid-run, restart, lose nothing ----------

namespace e2e {

struct Reference {
  std::map<SeriesKey, std::map<std::int64_t, aggregator::Rollup>> fine;

  void add(const std::string& job, int rank, const exporter::Record& r) {
    if (!std::isfinite(r.timeSeconds) || !std::isfinite(r.value) ||
        r.timeSeconds < 0.0) {
      return;  // mirrors RollupStore::ingest / Engine::mergeSamples
    }
    const auto index =
        static_cast<std::int64_t>(std::floor(r.timeSeconds / 1.0));
    fine[SeriesKey{job, rank, std::string(r.nameView())}][index].merge(
        r.value);
  }
};

}  // namespace e2e

TEST_F(TsdbEngineTest, ClusterJobSurvivesAggregatorCrashWithZeroLoss) {
  cluster::ClusterJobConfig cfg;
  cfg.nodes = 1;
  cfg.ranksPerNode = 2;
  cfg.cpusPerTask = 7;
  cfg.workload.ompThreads = 4;
  cfg.workload.steps = 80;
  cfg.workload.workPerStep = 10;
  const auto topo = topology::presets::frontier();
  cluster::ClusterJob job(topo, cfg);

  EngineOptions engineOptions;
  engineOptions.fsync = FsyncPolicy::kOff;  // crash = process death, not
                                            // power loss: write() is enough
  engineOptions.walRotateBytes = 64 * 1024;  // force mid-run compactions
  job.enableAggregation("crashjob", {}, dir_, engineOptions);

  // Brute-force reference: everything every rank ever published, rolled
  // up with the same windowing the engine uses.
  e2e::Reference reference;
  for (int rank = 0; rank < job.totalRanks(); ++rank) {
    job.aggStream(rank).subscribe([&reference, rank](const exporter::Batch& b) {
      for (const auto& record : b) {
        reference.add("crashjob", rank, record);
      }
    });
  }

  // Run a while, hard-kill the daemon+engine, keep running (clients queue
  // and back off against the dead hub), restart, run to completion.
  job.run(3.0);
  ASSERT_NE(job.aggEngine(), nullptr);
  job.crashAggregator();
  EXPECT_EQ(job.aggEngine(), nullptr);
  job.run(5.0);
  job.restartAggregation();
  ASSERT_NE(job.aggEngine(), nullptr);
  // Recovery found the crash's leftovers: WAL batches to replay, and/or
  // segments a mid-run compaction already sealed.
  EXPECT_GT(job.aggEngine()->counters().walReplayedBatches +
                job.aggEngine()->segmentCount(),
            0U);
  job.run(900.0);

  // Nothing was dropped anywhere: the queue bound was never hit, so the
  // engine must hold every published record.
  for (int rank = 0; rank < job.totalRanks(); ++rank) {
    EXPECT_EQ(job.aggClient(rank).counters().recordsDropped, 0U) << rank;
  }
  ASSERT_FALSE(reference.fine.empty());

  const Engine& engine = *job.aggEngine();
  const auto keys = engine.seriesKeys();
  ASSERT_EQ(keys.size(), reference.fine.size());

  std::uint64_t checkedWindows = 0;
  for (const auto& [key, expected] : reference.fine) {
    const auto windows =
        engine.range(key, 0.0, job.runtimeSeconds() + 10.0);
    ASSERT_EQ(windows.size(), expected.size())
        << key.metric << " rank " << key.rank;
    auto expectedIt = expected.begin();
    for (const auto& w : windows) {
      EXPECT_DOUBLE_EQ(
          w.windowStartSeconds,
          static_cast<double>(expectedIt->first) * 1.0);
      EXPECT_EQ(w.rollup.count, expectedIt->second.count)
          << key.metric << " @ " << w.windowStartSeconds;
      EXPECT_DOUBLE_EQ(w.rollup.min, expectedIt->second.min);
      EXPECT_DOUBLE_EQ(w.rollup.max, expectedIt->second.max);
      // A window split across a segment and the hot state re-adds sums
      // in a different association order: exact to a relative ulp or so.
      EXPECT_NEAR(w.rollup.sum, expectedIt->second.sum,
                  1e-9 * std::max(1.0, std::fabs(expectedIt->second.sum)));
      ++expectedIt;
      ++checkedWindows;
    }
  }
  EXPECT_GT(checkedWindows, 100U);  // the check actually covered the run

  // The daemon's query path answers from the persistent engine.
  const json::Value snap = json::parse(
      job.aggregatorDaemon()->query(R"({"op":"snapshot","rank":1})"));
  EXPECT_FALSE(snap.find("series")->asArray().empty());

  // And a cold offline reader over the sealed dir sees the same world.
  EngineOptions ro;
  ro.readOnly = true;
  Engine offline(dir_, ro);
  EXPECT_EQ(offline.seriesKeys().size(), keys.size());
  const SeriesKey probe = reference.fine.begin()->first;
  const auto live = engine.range(probe, 0.0, job.runtimeSeconds() + 10.0);
  const auto cold = offline.range(probe, 0.0, job.runtimeSeconds() + 10.0);
  ASSERT_EQ(cold.size(), live.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].rollup.count, live[i].rollup.count);
    EXPECT_DOUBLE_EQ(cold[i].rollup.min, live[i].rollup.min);
    EXPECT_DOUBLE_EQ(cold[i].rollup.max, live[i].rollup.max);
  }
}

// --- the on-disk format, byte for byte --------------------------------------

namespace guard {

/// FNV-1a 64 over every file of a data dir in name order: each file's
/// name, a NUL, then its bytes.  Written here rather than borrowed from
/// tsdb::crc32, so a change to the checksum kernel cannot hide a change to
/// the files it guards.
std::uint64_t dirChecksum(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 1099511628211ULL;
    }
  };
  for (const fs::path& path : files) {
    const std::string name = path.filename().string();
    mix(name.c_str(), name.size() + 1);
    std::ifstream in(path, std::ios::binary);
    const std::string bytes(std::istreambuf_iterator<char>(in), {});
    mix(bytes.data(), bytes.size());
  }
  return hash;
}

}  // namespace guard

TEST_F(TsdbEngineTest, DaemonStreamWritesTheGuardedWalAndSegmentBytes) {
  // The data dir's checksum after every 13th period and after seal().  A
  // change to the WAL, segment or registry bytes fails here; update these
  // only together with kWalVersion or kSegmentVersion.
  const std::vector<std::uint64_t> expected = {
      0x980e257fd1bda89dULL, 0x6ae673f787f5851bULL,
      0xcf248ef6fb17cc9cULL, 0xffa2cb15399f7342ULL,
      0x7ac4537f54c6ebd3ULL, 0x70897802874011bfULL,
      0xc93554d4bf7b3b97ULL, 0x6b036797cbcb3aeeULL,
      0x5ef9ab088244752eULL, 0x699727f57c1b51bfULL,
      0x47c5d47a4376247fULL, 0x80e9c8fab5f6f7c9ULL,
      0x6c9a87d88478f678ULL, 0x53a0e204b23afb4eULL,
      0xa54769585da6868aULL, 0x46a6bb3581a494a7ULL,
      0xd3b172ea31c002e8ULL, 0xb5a25effd4e16818ULL,
      0x3e368e318f533114ULL, 0xc741d3f84760acb5ULL,
      0x880959e7d001bea7ULL, 0x818c30af16ea22fcULL,
      0x0a7bd570cf27b3ecULL, 0xbde70e5df298f12dULL,
      0xc76a44b52e74d444ULL, 0xf2ddebfc6cab04b7ULL,
      0x266f600f4f7e1fb9ULL, 0x02b7d74a17492aeaULL,
      0xfa66b7411b9e3236ULL, 0x8838c20bcaa62a1aULL,
      0x7ec681e91dd174b2ULL,
  };
  EngineOptions options;
  options.fsync = FsyncPolicy::kOff;
  options.walRotateBytes = 64 * 1024;
  options.maxSegments = 6;
  options.coarseFactor = 4;
  Engine engine(dir_, options);
  aggregator::PipeHub hub;
  aggregator::Aggregator daemon(hub.makeServer());
  daemon.attachEngine(&engine);

  constexpr int kRanks = 6;
  constexpr int kMetrics = 40;
  constexpr int kPeriods = 400;
  std::vector<std::string> metrics;
  for (int m = 0; m < kMetrics; ++m) {
    // Every third name is past the 15-character small-string buffer.
    metrics.push_back(m % 3 == 0 ? "guard.long.metric.name." + std::to_string(m)
                                 : "g." + std::to_string(m));
  }
  aggregator::ClientOptions clientOptions;
  clientOptions.reconnectJitterFraction = 0.0;
  std::vector<std::unique_ptr<aggregator::Client>> clients;
  for (int rank = 0; rank < kRanks; ++rank) {
    clients.push_back(std::make_unique<aggregator::Client>(
        hub.makeClientTransport(),
        aggregator::Hello{"guard", rank, kRanks,
                          "node" + std::to_string(rank / 2), 100 + rank},
        clientOptions));
  }

  // Raw mt19937 words only: the standard fixes them, unlike its
  // distributions, so the stream is the same under every library.
  std::mt19937 rng(20261019U);
  const auto unit = [&rng] {
    return static_cast<double>(rng()) / 4294967296.0;
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t> actual;
  std::vector<aggregator::IdRecord> records;
  for (int p = 0; p < kPeriods; ++p) {
    const double t = 1.0 + p;
    for (int rank = 0; rank < kRanks; ++rank) {
      records.clear();
      for (int m = 0; m < kMetrics; ++m) {
        double time = t + 0.01 * m;
        double value = 100.0 * m + rank + 0.25 * (p % 17) + unit();
        const double roll = unit();
        if (roll < 0.04) {
          time -= 8.0 * unit();  // late, by up to 8 s
        } else if (roll < 0.05) {
          value = std::numeric_limits<double>::quiet_NaN();
        } else if (roll < 0.06) {
          value = roll < 0.055 ? inf : -inf;
        } else if (roll < 0.07) {
          time = -1.0 - unit();
        } else if (roll < 0.08) {
          value = -value;  // negative values are kept
        }
        records.push_back(
            {time, names::intern(metrics[static_cast<std::size_t>(m)]), value});
        if (unit() < 0.03) {
          const aggregator::IdRecord duplicate = records.back();
          records.push_back(duplicate);
        }
      }
      clients[static_cast<std::size_t>(rank)]->enqueueIds(records, t);
    }
    daemon.poll(t);
    if (p % 13 == 12) {
      actual.push_back(guard::dirChecksum(dir_));
    }
  }
  const double end = 1.0 + kPeriods;
  for (auto& client : clients) {
    client->goodbye(end);
  }
  daemon.poll(end);
  daemon.drainBacklog(end);
  engine.seal();
  actual.push_back(guard::dirChecksum(dir_));

  EXPECT_GT(engine.counters().compactions, 30U);
  EXPECT_GT(engine.counters().segmentsDropped, 20U);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "checkpoint " << i;
  }
}

}  // namespace
