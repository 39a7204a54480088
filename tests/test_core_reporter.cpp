#include "core/reporter.hpp"

#include <gtest/gtest.h>

#include "gpu/simulated.hpp"

namespace zerosum::core {
namespace {

LwpRecord sampleRecord(int tid, LwpType type, bool dagger, double stime,
                       double utime, std::uint64_t nvctx, std::uint64_t vctx,
                       const std::string& cpus) {
  LwpRecord r;
  r.tid = tid;
  r.type = type;
  r.alsoOpenMp = dagger;
  LwpSample s;
  s.stimeDelta = static_cast<std::uint64_t>(stime);
  s.utimeDelta = static_cast<std::uint64_t>(utime);
  s.stime = s.stimeDelta;
  s.utime = s.utimeDelta;
  s.nonvoluntaryCtx = nvctx;
  s.voluntaryCtx = vctx;
  r.addSample(s, CpuSet::fromList(cpus));
  return r;
}

ReportInput listing2Input(const std::map<int, LwpRecord>& lwps,
                          const std::map<std::size_t, HwtRecord>& hwts) {
  ReportInput input;
  input.identity.rank = 0;
  input.identity.worldSize = 8;
  input.identity.pid = 51334;
  input.identity.hostname = "frontier09085";
  input.durationSeconds = 210.878;
  input.processAffinity = CpuSet::fromList("1-7");
  input.lwps = &lwps;
  input.hwts = &hwts;
  return input;
}

TEST(Reporter, Listing2Framing) {
  std::map<int, LwpRecord> lwps;
  lwps[51334] = sampleRecord(51334, LwpType::kMain, true, 12, 64, 4,
                             365488, "1");
  std::map<std::size_t, HwtRecord> hwts;
  HwtRecord hwt;
  hwt.cpu = 1;
  HwtSample hs;
  hs.idlePct = 22.70;
  hs.systemPct = 12.42;
  hs.userPct = 64.52;
  hwt.samples.push_back(hs);
  hwts[1] = hwt;

  const std::string out = Reporter::render(listing2Input(lwps, hwts));
  EXPECT_NE(out.find("Duration of execution: 210.878 s"), std::string::npos);
  EXPECT_NE(out.find("Process Summary:"), std::string::npos);
  EXPECT_NE(out.find("MPI 000 - PID 51334 - Node frontier09085 - "
                     "CPUs allowed: [1-7]"),
            std::string::npos);
  EXPECT_NE(out.find("LWP (thread) Summary:"), std::string::npos);
  EXPECT_NE(out.find("LWP 51334: Main, OpenMP - stime: 12.00, utime: 64.00, "
                     "nv_ctx: 4, ctx: 365488, CPUs: [1]"),
            std::string::npos);
  EXPECT_NE(out.find("Hardware Summary:"), std::string::npos);
  EXPECT_NE(out.find("CPU 001 - idle: 22.70, system: 12.42, user: 64.52"),
            std::string::npos);
}

TEST(Reporter, ExitedThreadAnnotated) {
  std::map<int, LwpRecord> lwps;
  LwpRecord r = sampleRecord(7, LwpType::kOther, false, 0, 0, 0, 6, "1-7");
  r.alive = false;
  lwps[7] = r;
  std::map<std::size_t, HwtRecord> hwts;
  const std::string out = Reporter::render(listing2Input(lwps, hwts));
  EXPECT_NE(out.find("(exited)"), std::string::npos);
}

TEST(Reporter, GpuSectionMinAvgMax) {
  GpuRecord gpu;
  gpu.visibleIndex = 0;
  gpu.physicalIndex = 4;
  gpu.model = "AMD MI250X GCD";
  auto& acc = gpu.accumulators[gpu::Metric::kClockGfxMhz];
  acc.add(800.0);
  acc.add(1700.0);
  acc.add(1344.0);
  const std::string out = Reporter::renderGpuSection({gpu});
  EXPECT_NE(out.find("GPU 0 - (metric: min avg max)"), std::string::npos);
  EXPECT_NE(out.find("[true device index 4]"), std::string::npos);
  EXPECT_NE(out.find("Clock Frequency, GLX (MHz):"), std::string::npos);
  EXPECT_NE(out.find("800.000000"), std::string::npos);
  EXPECT_NE(out.find("1281.333333"), std::string::npos);
  EXPECT_NE(out.find("1700.000000"), std::string::npos);
}

TEST(Reporter, GpuSectionOmitsUnsampledMetrics) {
  GpuRecord gpu;
  gpu.visibleIndex = 2;
  gpu.physicalIndex = 2;
  gpu.accumulators[gpu::Metric::kPowerAverageW].add(90.0);
  const std::string out = Reporter::renderGpuSection({gpu});
  EXPECT_NE(out.find("Power Average (W)"), std::string::npos);
  EXPECT_EQ(out.find("Temperature"), std::string::npos);
  EXPECT_EQ(out.find("[true device index"), std::string::npos);
}

TEST(Reporter, MemorySection) {
  std::map<int, LwpRecord> lwps;
  std::map<std::size_t, HwtRecord> hwts;
  std::vector<MemSample> memory;
  MemSample m;
  m.memTotalKb = 1000;
  m.memAvailableKb = 400;
  m.processRssKb = 300;
  memory.push_back(m);
  m.processRssKb = 500;
  m.memAvailableKb = 200;
  memory.push_back(m);
  ReportInput input = listing2Input(lwps, hwts);
  input.memory = &memory;
  const std::string out = Reporter::render(input);
  EXPECT_NE(out.find("Memory Summary:"), std::string::npos);
  EXPECT_NE(out.find("available at end: 200 kB"), std::string::npos);
  EXPECT_NE(out.find("RSS at end: 500 kB, peak: 500 kB"), std::string::npos);
}

TEST(Reporter, FindingsIncluded) {
  std::map<int, LwpRecord> lwps;
  std::map<std::size_t, HwtRecord> hwts;
  ReportInput input = listing2Input(lwps, hwts);
  Finding f;
  f.severity = Severity::kWarning;
  f.code = "demo";
  f.message = "finding text";
  input.findings.push_back(f);
  const std::string out = Reporter::render(input);
  EXPECT_NE(out.find("Contention / Configuration Findings:"),
            std::string::npos);
  EXPECT_NE(out.find("[WARNING] demo: finding text"), std::string::npos);
}

TEST(Reporter, LwpTableColumns) {
  std::map<int, LwpRecord> lwps;
  lwps[18351] = sampleRecord(18351, LwpType::kMain, true, 1.54, 15.17, 332905,
                             1838, "1");
  lwps[18356] =
      sampleRecord(18356, LwpType::kZeroSum, false, 0.42, 1.10, 194, 1007,
                   "1");
  const std::string out = Reporter::renderLwpTable(lwps);
  EXPECT_NE(out.find("LWP"), std::string::npos);
  EXPECT_NE(out.find("Type"), std::string::npos);
  EXPECT_NE(out.find("18351"), std::string::npos);
  EXPECT_NE(out.find("Main+"), std::string::npos);  // dagger rendering
  EXPECT_NE(out.find("ZeroSum"), std::string::npos);
  EXPECT_NE(out.find("332905"), std::string::npos);
}

}  // namespace
}  // namespace zerosum::core
