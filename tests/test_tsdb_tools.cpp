// Tool-level persistence tests:
//   * zerosum-aggd --data-dir: SIGTERM mid-run seals the store, and a
//     cold read-only engine finds every batch the daemon had acked at
//     the moment of the kill (the satellite "kill test");
//   * zerosum-post --tsdb-query: offline answers over the sealed dir
//     match what the live daemon reported.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/client.hpp"
#include "aggregator/query.hpp"
#include "aggregator/tcp.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "tsdb/engine.hpp"

using namespace zerosum;

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

/// Binds an ephemeral port, frees it, and hands the number to the tool
/// under test (small race, standard test trade-off).
int pickFreePort() {
  aggregator::TcpServer probe(0);
  return probe.port();
}

class TsdbToolsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("zs_tsdb_tools_") + info->name() + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
    dir_ = (root_ / "data").string();
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  std::string dir_;
};

TEST_F(TsdbToolsTest, PostToolAnswersOfflineQueries) {
  const fs::path tool = toolsDirectory() / "zerosum-post";
  if (!fs::exists(tool)) {
    GTEST_SKIP() << "zerosum-post not built";
  }
  {
    tsdb::Engine engine(dir_);
    engine.append("job", 0,
                  {{1.5, "cpu.util", 50.0}, {2.5, "cpu.util", 70.0}});
    tsdb::SourceRecord source;
    source.job = "job";
    source.rank = 0;
    source.hostname = "node0000";
    engine.noteSource(source);
    engine.seal();
  }

  int exitCode = 0;
  std::string out = runCommand(
      tool.string() + " --tsdb-query sources --data-dir " + dir_, &exitCode);
  EXPECT_EQ(exitCode, 0) << out;
  EXPECT_EQ(json::parse(out)
                .find("sources")
                ->asArray()[0]
                .stringOr("hostname", ""),
            "node0000");

  out = runCommand(
      tool.string() +
          " --tsdb-query "
          "'{\"op\":\"range\",\"metric\":\"cpu.util\",\"job\":\"job\","
          "\"rank\":0}' --data-dir " +
          dir_,
      &exitCode);
  EXPECT_EQ(exitCode, 0) << out;
  const json::Value rangeDoc = json::parse(out);
  const auto& windows = rangeDoc.find("windows")->asArray();
  ASSERT_EQ(windows.size(), 2U);
  EXPECT_DOUBLE_EQ(windows[0].numberOr("min", 0.0), 50.0);
  EXPECT_DOUBLE_EQ(windows[1].numberOr("max", 0.0), 70.0);

  out = runCommand(
      tool.string() + " --tsdb-query stats --data-dir " + dir_, &exitCode);
  EXPECT_EQ(exitCode, 0) << out;
  EXPECT_GE(json::parse(out).numberOr("segments", -1.0), 1.0);

  // Missing data dir: a usage error, clearly distinguished.
  out = runCommand(tool.string() + " --tsdb-query sources", &exitCode);
  EXPECT_NE(exitCode, 0);
  EXPECT_NE(out.find("--data-dir"), std::string::npos);

  // Nonexistent dir: a failure exit, not a silent empty answer.
  out = runCommand(tool.string() + " --tsdb-query sources --data-dir " +
                       (root_ / "absent").string(),
                   &exitCode);
  EXPECT_NE(exitCode, 0);
}

TEST_F(TsdbToolsTest, AggdSigtermLosesNoAckedBatch) {
  const fs::path tool = toolsDirectory() / "zerosum-aggd";
  const fs::path postTool = toolsDirectory() / "zerosum-post";
  if (!fs::exists(tool)) {
    GTEST_SKIP() << "zerosum-aggd not built";
  }
  const int port = pickFreePort();
  ASSERT_GT(port, 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const std::string portStr = std::to_string(port);
    ::execl(tool.c_str(), tool.c_str(), "--port", portStr.c_str(),
            "--data-dir", dir_.c_str(), "--fsync", "always",
            "--duration", "60", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  // Wait until the daemon listens: a refused connect returns at once, so
  // only a wall-clock bound survives a loaded host.  Both loops together
  // stay well inside the daemon's --duration.
  using Clock = std::chrono::steady_clock;
  const auto listenDeadline = Clock::now() + std::chrono::seconds(15);
  bool listening = false;
  while (!listening && Clock::now() < listenDeadline) {
    aggregator::TcpTransport ready("127.0.0.1", port);
    listening = ready.connect();
    if (!listening) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(listening) << "daemon never listened on port " << port;

  // Stream batches at the daemon until it confirms them via a range
  // query served from its persistence engine: confirmation == acked ==
  // WAL'd (fsync=always), the set SIGTERM must not lose.
  aggregator::Hello hello;
  hello.job = "killjob";
  hello.rank = 0;
  hello.worldSize = 1;
  hello.hostname = "testhost";
  hello.pid = static_cast<int>(::getpid());
  aggregator::ClientOptions clientOptions;
  clientOptions.batchRecords = 1;  // flush every enqueue
  clientOptions.reconnectBackoffSeconds = 0.01;
  aggregator::Client client(
      std::make_unique<aggregator::TcpTransport>("127.0.0.1", port), hello,
      clientOptions);

  constexpr int kRecords = 40;
  double ackedCount = 0.0;
  int sent = 0;
  const auto ackDeadline = Clock::now() + std::chrono::seconds(15);
  // `tick` is only the client's virtual clock; the deadline bounds the
  // loop.
  for (int tick = 0; ackedCount < kRecords && Clock::now() < ackDeadline;
       ++tick) {
    // Re-sends are idempotent at this count check only because the
    // client requeues unsent records rather than duplicating acked
    // ones; enqueue each record exactly once.
    if (sent < kRecords) {
      const double t = 0.5 + sent;
      client.enqueueIds({{t, names::intern("kill.metric"), 10.0 + sent}},
                        static_cast<double>(tick));
      ++sent;
    } else {
      client.pump(static_cast<double>(tick));
    }
    aggregator::TcpTransport probe("127.0.0.1", port);
    const auto response = aggregator::requestOverTransport(
        probe,
        R"({"op":"range","metric":"kill.metric","job":"killjob","rank":0})",
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
        50);
    if (response) {
      ackedCount = 0.0;
      const json::Value doc = json::parse(*response);
      if (const auto* ackedWindows = doc.find("windows")) {
        for (const auto& w : ackedWindows->asArray()) {
          ackedCount += w.numberOr("count", 0.0);
        }
      }
    }
  }
  ASSERT_EQ(ackedCount, kRecords) << "daemon never acked all records";

  // SIGTERM: the daemon must flush, seal, and exit 0.
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Cold recovery: every acked record is on disk, bit for bit.
  tsdb::EngineOptions ro;
  ro.readOnly = true;
  tsdb::Engine engine(dir_, ro);
  const auto windows =
      engine.range({"killjob", 0, "kill.metric"}, 0.0, 1e9);
  std::uint64_t total = 0;
  for (const auto& w : windows) {
    total += w.rollup.count;
    EXPECT_EQ(w.rollup.count, 1U);  // one record per 1 s window
    // value at window t is 10 + t's index (t = 0.5 + i)
    const auto i = static_cast<int>(w.windowStartSeconds);
    EXPECT_DOUBLE_EQ(w.rollup.min, 10.0 + i);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kRecords));
  const auto sources = engine.sources();
  ASSERT_EQ(sources.size(), 1U);
  EXPECT_EQ(sources[0].job, "killjob");
  EXPECT_EQ(sources[0].hostname, "testhost");

  // The offline CLI agrees with the in-process reader.
  if (fs::exists(postTool)) {
    int exitCode = 0;
    const std::string out = runCommand(
        postTool.string() +
            " --tsdb-query "
            "'{\"op\":\"range\",\"metric\":\"kill.metric\","
            "\"job\":\"killjob\",\"rank\":0}' --data-dir " +
            dir_,
        &exitCode);
    EXPECT_EQ(exitCode, 0) << out;
    const json::Value cliDoc = json::parse(out);
    double cliTotal = 0.0;
    for (const auto& w : cliDoc.find("windows")->asArray()) {
      cliTotal += w.numberOr("count", 0.0);
    }
    EXPECT_EQ(cliTotal, static_cast<double>(kRecords));
  }
}

}  // namespace
