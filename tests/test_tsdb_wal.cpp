// WAL tests: framing round-trips, fsync policies, and the full crash
// damage matrix — truncated header, torn record, corrupted CRC, empty
// and missing files — plus repairWal() re-append after truncation.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tsdb/wal.hpp"

using namespace zerosum;
using namespace zerosum::tsdb;

namespace {

namespace fs = std::filesystem;

class TsdbWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("zs_wal_test_") + info->name() + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "wal.log").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  static WalBatch sampleBatch(int rank, int n) {
    WalBatch batch;
    batch.job = "testjob";
    batch.rank = rank;
    for (int i = 0; i < n; ++i) {
      batch.samples.push_back(
          {1.0 + 0.1 * i, "cpu.util.hwt" + std::to_string(i), 50.0 + i});
    }
    return batch;
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

TEST_F(TsdbWalTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(fsyncPolicyFromString("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(fsyncPolicyFromString("batch"), FsyncPolicy::kBatch);
  EXPECT_EQ(fsyncPolicyFromString("off"), FsyncPolicy::kOff);
  EXPECT_STREQ(fsyncPolicyName(FsyncPolicy::kAlways), "always");
  EXPECT_STREQ(fsyncPolicyName(FsyncPolicy::kBatch), "batch");
  EXPECT_STREQ(fsyncPolicyName(FsyncPolicy::kOff), "off");
  EXPECT_THROW(fsyncPolicyFromString("sometimes"), ConfigError);
}

TEST_F(TsdbWalTest, PayloadRoundTripIncludingEdgeValues) {
  WalBatch batch;
  batch.job = "job with spaces \xF0\x9F\x9A\x80";
  batch.rank = -7;
  batch.samples.push_back({0.0, "", -0.0});
  batch.samples.push_back({1e300, "metric", 5e-324});
  const std::string payload = encodeWalPayload(batch);
  EXPECT_EQ(decodeWalPayload(payload), batch);
}

TEST_F(TsdbWalTest, AppendReadRoundTripAllPolicies) {
  for (const auto policy :
       {FsyncPolicy::kAlways, FsyncPolicy::kBatch, FsyncPolicy::kOff}) {
    fs::remove(path_);
    std::vector<WalBatch> written;
    {
      WalWriter writer(path_, policy, 64);  // tiny batch → exercise syncs
      for (int i = 0; i < 20; ++i) {
        written.push_back(sampleBatch(i % 4, 3));
        writer.append(written.back());
      }
      EXPECT_EQ(writer.recordsAppended(), 20U);
      EXPECT_GT(writer.sizeBytes(), 0U);
    }
    const auto result = readWal(path_);
    EXPECT_TRUE(result.damage.empty()) << result.damage;
    EXPECT_EQ(result.damagedBytes, 0U);
    EXPECT_EQ(result.batches, written)
        << "policy " << fsyncPolicyName(policy);
  }
}

TEST_F(TsdbWalTest, ReopenAppends) {
  {
    WalWriter writer(path_, FsyncPolicy::kOff);
    writer.append(sampleBatch(0, 2));
  }
  {
    WalWriter writer(path_, FsyncPolicy::kOff);
    writer.append(sampleBatch(1, 2));
  }
  const auto result = readWal(path_);
  ASSERT_EQ(result.batches.size(), 2U);
  EXPECT_EQ(result.batches[0].rank, 0);
  EXPECT_EQ(result.batches[1].rank, 1);
}

TEST_F(TsdbWalTest, MissingFileReadsEmpty) {
  const auto result = readWal((dir_ / "nope.log").string());
  EXPECT_TRUE(result.batches.empty());
  EXPECT_EQ(result.goodBytes, 0U);
  EXPECT_EQ(result.damagedBytes, 0U);
  EXPECT_TRUE(result.damage.empty());
}

TEST_F(TsdbWalTest, EmptyFileReadsEmpty) {
  writeFileBytes("");
  const auto result = readWal(path_);
  EXPECT_TRUE(result.batches.empty());
  EXPECT_TRUE(result.damage.empty());
}

TEST_F(TsdbWalTest, TruncatedHeaderDropsOnlyTheTail) {
  {
    WalWriter writer(path_, FsyncPolicy::kOff);
    writer.append(sampleBatch(0, 3));
    writer.append(sampleBatch(1, 3));
  }
  const std::string intact = readFileBytes();
  // Chop to leave record 1 whole plus 3 bytes of record 2's header.
  const auto first = readWal(path_);
  ASSERT_EQ(first.batches.size(), 2U);
  const std::string firstRecord =
      intact.substr(0, intact.size() / 2);  // not frame-aligned in general...
  (void)firstRecord;
  // ...so compute the exact boundary: re-write only record 1 and measure.
  std::uint64_t record1End = 0;
  {
    fs::remove(path_);
    WalWriter writer(path_, FsyncPolicy::kOff);
    writer.append(sampleBatch(0, 3));
    record1End = writer.sizeBytes();
  }
  writeFileBytes(intact.substr(0, record1End + 3));
  const auto result = readWal(path_);
  ASSERT_EQ(result.batches.size(), 1U);
  EXPECT_EQ(result.batches[0].rank, 0);
  EXPECT_EQ(result.goodBytes, record1End);
  EXPECT_EQ(result.damagedBytes, 3U);
  EXPECT_FALSE(result.damage.empty());
}

TEST_F(TsdbWalTest, TornRecordDropsOnlyTheTail) {
  std::uint64_t record1End = 0;
  {
    WalWriter writer(path_, FsyncPolicy::kOff);
    writer.append(sampleBatch(0, 3));
    record1End = writer.sizeBytes();
    writer.append(sampleBatch(1, 3));
  }
  const std::string intact = readFileBytes();
  // Keep the second record's full header but only half its payload.
  writeFileBytes(intact.substr(0, record1End + 8 + 5));
  const auto result = readWal(path_);
  ASSERT_EQ(result.batches.size(), 1U);
  EXPECT_EQ(result.goodBytes, record1End);
  EXPECT_GT(result.damagedBytes, 0U);
  EXPECT_FALSE(result.damage.empty());
}

TEST_F(TsdbWalTest, CorruptedCrcDropsFromTheDamagePoint) {
  std::uint64_t record1End = 0;
  {
    WalWriter writer(path_, FsyncPolicy::kOff);
    writer.append(sampleBatch(0, 3));
    record1End = writer.sizeBytes();
    writer.append(sampleBatch(1, 3));
    writer.append(sampleBatch(2, 3));
  }
  std::string bytes = readFileBytes();
  bytes[record1End + 12] ^= 0x5A;  // flip a payload byte of record 2
  writeFileBytes(bytes);
  const auto result = readWal(path_);
  // Never resynchronize past mid-file damage: records 2 AND 3 drop.
  ASSERT_EQ(result.batches.size(), 1U);
  EXPECT_EQ(result.goodBytes, record1End);
  EXPECT_EQ(result.damagedBytes, bytes.size() - record1End);
  EXPECT_NE(result.damage.find("crc"), std::string::npos) << result.damage;
}

TEST_F(TsdbWalTest, ImplausibleLengthIsDamageNotAllocation) {
  std::uint64_t goodEnd = 0;
  {
    WalWriter writer(path_, FsyncPolicy::kOff);
    writer.append(sampleBatch(0, 1));
    goodEnd = writer.sizeBytes();
  }
  std::string bytes = readFileBytes();
  // Append a frame header claiming a ~4 GiB record.
  bytes += std::string("\xFF\xFF\xFF\xFF", 4) + std::string(8, '\0');
  writeFileBytes(bytes);
  const auto result = readWal(path_);
  ASSERT_EQ(result.batches.size(), 1U);
  EXPECT_EQ(result.goodBytes, goodEnd);
  EXPECT_FALSE(result.damage.empty());
}

TEST_F(TsdbWalTest, RepairTruncatesAndAppendContinues) {
  std::uint64_t record1End = 0;
  {
    WalWriter writer(path_, FsyncPolicy::kOff);
    writer.append(sampleBatch(0, 3));
    record1End = writer.sizeBytes();
    writer.append(sampleBatch(1, 3));
  }
  const std::string intact = readFileBytes();
  writeFileBytes(intact.substr(0, intact.size() - 2));  // torn tail
  auto result = readWal(path_);
  ASSERT_EQ(result.batches.size(), 1U);

  repairWal(path_, result);
  EXPECT_EQ(fs::file_size(path_), record1End);

  {
    WalWriter writer(path_, FsyncPolicy::kAlways);
    writer.append(sampleBatch(9, 2));
  }
  const auto after = readWal(path_);
  EXPECT_TRUE(after.damage.empty()) << after.damage;
  ASSERT_EQ(after.batches.size(), 2U);
  EXPECT_EQ(after.batches[0].rank, 0);
  EXPECT_EQ(after.batches[1].rank, 9);
}

TEST_F(TsdbWalTest, RepairIsNoOpOnCleanLog) {
  {
    WalWriter writer(path_, FsyncPolicy::kOff);
    writer.append(sampleBatch(0, 1));
  }
  const auto before = fs::file_size(path_);
  repairWal(path_, readWal(path_));
  EXPECT_EQ(fs::file_size(path_), before);
}

TEST_F(TsdbWalTest, UnopenableDirectoryThrows) {
  EXPECT_THROW(WalWriter(dir_.string(), FsyncPolicy::kOff), StateError);
}

TEST_F(TsdbWalTest, AFailedAppendLeavesNoTornFrame) {
  // A write that fails part-way (here EFBIG: the file-size limit, lowered
  // for this process only, falls inside the third frame) must not leave
  // its partial frame for the next append to land behind.
  WalWriter writer(path_, FsyncPolicy::kOff);
  writer.append(sampleBatch(1, 3));
  writer.append(sampleBatch(2, 3));
  const std::uint64_t whole = writer.sizeBytes();

  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction oldAction {};
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore, &oldAction), 0);
  rlimit oldLimit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &oldLimit), 0);
  rlimit lowered = oldLimit;
  lowered.rlim_cur = whole + 10;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  EXPECT_THROW(writer.append(sampleBatch(3, 3)), StateError);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &oldLimit), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &oldAction, nullptr), 0);
  EXPECT_EQ(writer.sizeBytes(), whole);
  EXPECT_EQ(fs::file_size(path_), whole);

  writer.append(sampleBatch(4, 3));
  writer.append(sampleBatch(5, 3));
  writer.close();
  const WalReadResult result = readWal(path_);
  EXPECT_EQ(result.damagedBytes, 0U) << result.damage;
  ASSERT_EQ(result.batches.size(), 4U);
  const int ranks[] = {1, 2, 4, 5};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.batches[i], sampleBatch(ranks[i], 3)) << i;
  }
}

}  // namespace
