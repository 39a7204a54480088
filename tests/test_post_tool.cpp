// Integration test of the zerosum-post CLI: generate real per-rank logs
// from simulated sessions, post-process them, and check the Figure 5-7
// views come out.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <climits>
#include <cstdio>
#include <filesystem>

#include "core/monitor.hpp"
#include "mpisim/recorder.hpp"
#include "procfs/simfs.hpp"
#include "sim/workload.hpp"

namespace {

namespace fs = std::filesystem;

fs::path toolsDirectory() {
  char buffer[PATH_MAX] = {0};
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  EXPECT_GT(n, 0);
  return fs::path(buffer).parent_path().parent_path() / "tools";
}

std::string runCommand(const std::string& command, int* exitCode) {
  std::string output;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *exitCode = -1;
    return output;
  }
  std::array<char, 4096> chunk{};
  while (std::fgets(chunk.data(), chunk.size(), pipe) != nullptr) {
    output += chunk.data();
  }
  *exitCode = ::pclose(pipe);
  return output;
}

class PostToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tool_ = toolsDirectory() / "zerosum-post";
    if (!fs::exists(tool_)) {
      GTEST_SKIP() << "zerosum-post not built";
    }
    // Unique per test case: ctest runs cases of this binary as separate
    // parallel processes, and a shared directory name makes them delete
    // each other's logs mid-run.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("zs_post_test_") + info->name() + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes two rank logs from a shared simulated node, with comm data.
  void writeRankLogs() {
    using namespace zerosum;
    sim::SimNode node(CpuSet::fromList("0-7"), 16ULL << 30);
    std::vector<sim::BuiltRank> ranks;
    sim::MiniQmcConfig qmc;
    qmc.ompThreads = 2;
    qmc.steps = 50;
    qmc.workPerStep = 8;
    ranks.push_back(sim::buildMiniQmcRank(node, CpuSet::fromList("0-1"),
                                          qmc, node.hwts()));
    ranks.push_back(sim::buildMiniQmcRank(node, CpuSet::fromList("2-3"),
                                          qmc, node.hwts()));

    std::vector<mpisim::Recorder> recorders;
    recorders.emplace_back(0);
    recorders.emplace_back(1);
    recorders[0].recordSend(1, 1 << 20);
    recorders[1].recordSend(0, 1 << 20);

    for (int rank = 0; rank < 2; ++rank) {
      core::Config cfg;
      cfg.jiffyHz = sim::kHz;
      cfg.signalHandler = false;
      cfg.logPrefix = (dir_ / "job").string();
      core::ProcessIdentity identity;
      identity.rank = rank;
      identity.pid = ranks[static_cast<std::size_t>(rank)].pid;
      identity.hostname = "simnode";
      core::MonitorSession session(
          cfg,
          procfs::makeSimProcFs(node,
                                ranks[static_cast<std::size_t>(rank)].pid),
          identity);
      session.attachCommRecorder(
          &recorders[static_cast<std::size_t>(rank)]);
      for (int t = 1; t <= 3; ++t) {
        if (rank == 0) {
          node.advance(sim::kHz);  // advance once per period, not per rank
        }
        session.sampleNow(t);
      }
      session.writeLogFile();
    }
  }

  [[nodiscard]] std::string logGlob() const {
    std::string files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      files += ' ';  // not " " + string&&: a gcc 12 -O3 false -Wrestrict
      files += entry.path().string();
    }
    return files;
  }

  fs::path tool_;
  fs::path dir_;
};

TEST_F(PostToolTest, SummaryListsAllRanks) {
  writeRankLogs();
  int exitCode = 0;
  const std::string out =
      runCommand(tool_.string() + logGlob(), &exitCode);
  EXPECT_EQ(exitCode, 0) << out;
  EXPECT_NE(out.find("Parsed 2 rank log(s):"), std::string::npos);
  EXPECT_NE(out.find("simnode"), std::string::npos);
}

TEST_F(PostToolTest, ChartsRendered) {
  writeRankLogs();
  int exitCode = 0;
  const std::string out =
      runCommand(tool_.string() + " --charts" + logGlob(), &exitCode);
  EXPECT_EQ(exitCode, 0) << out;
  EXPECT_NE(out.find("LWP utilization over time"), std::string::npos);
  EXPECT_NE(out.find("HWT utilization over time"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);  // busy bars exist
}

TEST_F(PostToolTest, HeatmapAndReorderFromCommSections) {
  writeRankLogs();
  int exitCode = 0;
  const std::string pgm = (dir_ / "map.pgm").string();
  const std::string out = runCommand(
      tool_.string() + " --heatmap --reorder 1 --pgm " + pgm + logGlob(),
      &exitCode);
  EXPECT_EQ(exitCode, 0) << out;
  EXPECT_NE(out.find("P2P heatmap"), std::string::npos);
  EXPECT_NE(out.find("Rank-placement advice"), std::string::npos);
  EXPECT_TRUE(fs::exists(pgm));
}

TEST_F(PostToolTest, MissingLogFails) {
  int exitCode = 0;
  const std::string out =
      runCommand(tool_.string() + " /no/such.log", &exitCode);
  EXPECT_NE(exitCode, 0);
  EXPECT_NE(out.find("not found"), std::string::npos);
}

TEST_F(PostToolTest, NoArgsShowsError) {
  int exitCode = 0;
  const std::string out = runCommand(tool_.string(), &exitCode);
  EXPECT_NE(exitCode, 0);
  EXPECT_NE(out.find("no log files"), std::string::npos);
}

}  // namespace
