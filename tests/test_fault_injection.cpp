// Fault-tolerance matrix: FaultInjectingProcFs schedules, the
// SubsystemGuard quarantine state machine, and MonitorSession surviving
// every fault class end-to-end — the "do no harm" guarantee of §3.1.
#include "procfs/faultfs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/faulttransport.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/health.hpp"
#include "core/monitor.hpp"
#include "gpu/device.hpp"
#include "procfs/simfs.hpp"
#include "sim/node.hpp"

namespace zerosum {
namespace {

using core::Config;
using core::MonitorHealth;
using core::MonitorSession;
using core::SubsystemGuard;
using procfs::FaultInjectingProcFs;
using procfs::FaultKind;
using procfs::FaultRule;
using procfs::FaultSite;
using procfs::parseFaultSpec;

// --- Spec grammar ---------------------------------------------------------

TEST(FaultSpec, ParsesOneShotWindowedAndSticky) {
  const auto rules = parseFaultSpec(
      "taskstat:enoent@3, meminfo:truncate@5.. ,stat:garbage@2..4,"
      "listtasks:empty@1");
  ASSERT_EQ(rules.size(), 4u);

  EXPECT_EQ(rules[0].site, FaultSite::kTaskStat);
  EXPECT_EQ(rules[0].kind, FaultKind::kNotFound);
  EXPECT_EQ(rules[0].firstCall, 3u);
  ASSERT_TRUE(rules[0].lastCall.has_value());
  EXPECT_EQ(*rules[0].lastCall, 3u);

  EXPECT_EQ(rules[1].site, FaultSite::kMeminfo);
  EXPECT_EQ(rules[1].kind, FaultKind::kTruncate);
  EXPECT_EQ(rules[1].firstCall, 5u);
  EXPECT_FALSE(rules[1].lastCall.has_value());  // sticky

  EXPECT_EQ(rules[2].site, FaultSite::kStat);
  EXPECT_EQ(rules[2].kind, FaultKind::kGarbage);
  EXPECT_EQ(rules[2].firstCall, 2u);
  EXPECT_EQ(*rules[2].lastCall, 4u);

  EXPECT_EQ(rules[3].site, FaultSite::kListTasks);
  EXPECT_EQ(rules[3].kind, FaultKind::kEmpty);
  EXPECT_TRUE(rules[3].covers(1));
  EXPECT_FALSE(rules[3].covers(2));
}

TEST(FaultSpec, CaseInsensitiveAndSynonyms) {
  const auto rules = parseFaultSpec("TASKSTAT:ENOENT@1,Status:NotFound@2");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].kind, FaultKind::kNotFound);
  EXPECT_EQ(rules[1].site, FaultSite::kProcessStatus);
  EXPECT_EQ(rules[1].kind, FaultKind::kNotFound);
}

TEST(FaultSpec, EmptySpecYieldsNoRules) {
  EXPECT_TRUE(parseFaultSpec("").empty());
  EXPECT_TRUE(parseFaultSpec(" , ,").empty());
}

TEST(FaultSpec, MalformedThrowsConfigError) {
  EXPECT_THROW((void)parseFaultSpec("taskstat"), ConfigError);
  EXPECT_THROW((void)parseFaultSpec("taskstat:enoent"), ConfigError);      // no @
  EXPECT_THROW((void)parseFaultSpec("nosuchsite:enoent@1"), ConfigError);
  EXPECT_THROW((void)parseFaultSpec("taskstat:explode@1"), ConfigError);
  EXPECT_THROW((void)parseFaultSpec("taskstat:enoent@0"), ConfigError);    // 1-based
  EXPECT_THROW((void)parseFaultSpec("taskstat:enoent@x"), ConfigError);
  EXPECT_THROW((void)parseFaultSpec("taskstat:enoent@3..2"), ConfigError);
  EXPECT_THROW((void)parseFaultSpec("taskstat@3:enoent"), ConfigError);
}

TEST(FaultSpec, MutatedSpecsParseOrThrowConfigErrorNeverAnythingElse) {
  // 10 000 mutations of valid procfs and transport specs, each fed to
  // both grammars: a spec parses or throws ConfigError, nothing else.
  const std::vector<std::string> seeds = {
      "taskstat:enoent@3, meminfo:truncate@5.. ,stat:garbage@2..4",
      "listtasks:empty@1,Status:NotFound@2",
      "send:disconnect@5, CONNECT:fail@1..3, recv:short@4..",
      "send:partial@7,connect:fail@2..4,send:delay@25..30",
  };
  const std::string alphabet = ":@.,0123456789 acdefgilnorstuy";
  stats::SplitMix64 rng(2023);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.nextBelow(n));
  };
  std::uint64_t parsed[2] = {};
  std::uint64_t refused[2] = {};
  for (int i = 0; i < 10000; ++i) {
    std::string spec = seeds[below(seeds.size())];
    for (std::size_t edits = 1 + below(3); edits > 0; --edits) {
      const std::size_t at = below(spec.size() + 1);
      switch (below(5)) {
        case 0:  // flip a bit
          if (at < spec.size()) {
            spec[at] = static_cast<char>(spec[at] ^ (1 << below(8)));
          }
          break;
        case 1:  // insert a grammar byte, or any byte
          spec.insert(at, 1,
                      below(4) == 0 ? static_cast<char>(below(256))
                                    : alphabet[below(alphabet.size())]);
          break;
        case 2:  // delete a byte
          if (at < spec.size()) {
            spec.erase(at, 1);
          }
          break;
        case 3:  // truncate
          spec.resize(at);
          break;
        default:  // a call index past 64 bits, or zero
          spec.insert(at, below(2) == 0 ? "18446744073709551616" : "0");
          break;
      }
    }
    const auto run = [&](std::size_t grammar, auto parse) {
      try {
        (void)parse(spec);
        ++parsed[grammar];
      } catch (const ConfigError&) {
        ++refused[grammar];
      } catch (const std::exception& e) {
        ADD_FAILURE() << "'" << spec << "' threw " << e.what();
      }
    };
    run(0, parseFaultSpec);
    run(1, aggregator::parseTransportFaultSpec);
  }
  // Both outcomes happened in both grammars: mutants reached the rules.
  for (std::size_t grammar = 0; grammar < 2; ++grammar) {
    EXPECT_GT(parsed[grammar], 100U) << grammar;
    EXPECT_GT(refused[grammar], 1000U) << grammar;
  }
}

// --- Decorator behaviour over a scripted provider -------------------------

class StubFs final : public procfs::ProcFs {
 public:
  [[nodiscard]] int selfPid() const override { return 7; }
  [[nodiscard]] std::vector<int> listPids() const override { return {7}; }
  [[nodiscard]] std::vector<int> listTasks(int) const override {
    return {7, 8, 9, 10};
  }
  [[nodiscard]] std::string readProcessStatus(int) const override {
    return "STATUSBODY";
  }
  [[nodiscard]] std::string readTaskStat(int, int) const override {
    return "TASKSTATBODY";
  }
  [[nodiscard]] std::string readTaskStatus(int, int) const override {
    return "TASKSTATUSBODY";
  }
  [[nodiscard]] std::string readMeminfo() const override {
    return "MEMINFOBODY";
  }
  [[nodiscard]] std::string readStat() const override { return "STATBODY"; }
  [[nodiscard]] std::string readLoadavg() const override {
    return "LOADAVGBODY";
  }
};

TEST(FaultInjectingFs, OneShotFiresOnExactlyTheScheduledCall) {
  FaultInjectingProcFs fs(std::make_unique<StubFs>(),
                          parseFaultSpec("taskstat:enoent@2"));
  EXPECT_EQ(fs.readTaskStat(7, 7), "TASKSTATBODY");
  EXPECT_THROW((void)fs.readTaskStat(7, 7), NotFoundError);
  EXPECT_EQ(fs.readTaskStat(7, 7), "TASKSTATBODY");
  EXPECT_EQ(fs.readTaskStat(7, 7), "TASKSTATBODY");
  EXPECT_EQ(fs.callCount(FaultSite::kTaskStat), 4u);
  EXPECT_EQ(fs.injectedCount(FaultSite::kTaskStat), 1u);
  EXPECT_EQ(fs.totalInjected(), 1u);
}

TEST(FaultInjectingFs, StickyFaultNeverStops) {
  FaultInjectingProcFs fs(std::make_unique<StubFs>(),
                          parseFaultSpec("meminfo:truncate@3.."));
  EXPECT_EQ(fs.readMeminfo(), "MEMINFOBODY");
  EXPECT_EQ(fs.readMeminfo(), "MEMINFOBODY");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fs.readMeminfo(), "MEMIN");  // first half of 11 chars
  }
  EXPECT_EQ(fs.injectedCount(FaultSite::kMeminfo), 5u);
}

TEST(FaultInjectingFs, EmptyAndTruncateOnTaskListings) {
  FaultInjectingProcFs fs(
      std::make_unique<StubFs>(),
      parseFaultSpec("listtasks:empty@1,listtasks:truncate@2"));
  EXPECT_TRUE(fs.listTasks(7).empty());
  EXPECT_EQ(fs.listTasks(7).size(), 2u);  // half of 4
  EXPECT_EQ(fs.listTasks(7).size(), 4u);  // schedule exhausted
}

TEST(FaultInjectingFs, GarbageIsDeterministicPerSeed) {
  const auto rules = parseFaultSpec("stat:garbage@1..");
  FaultInjectingProcFs a(std::make_unique<StubFs>(), rules, 1234);
  FaultInjectingProcFs b(std::make_unique<StubFs>(), rules, 1234);
  FaultInjectingProcFs c(std::make_unique<StubFs>(), rules, 99);
  const std::string bodyA = a.readStat();
  EXPECT_EQ(bodyA, b.readStat());
  EXPECT_NE(bodyA, c.readStat());
  EXPECT_NE(bodyA, a.readStat());  // stream advances per call
  EXPECT_NE(bodyA.find("#corrupt"), std::string::npos);
}

TEST(FaultInjectingFs, WrapFromEnvUnsetPassesThrough) {
  env::unsetForTesting("ZS_FAULT_SPEC");
  auto inner = std::make_unique<StubFs>();
  const procfs::ProcFs* raw = inner.get();
  const auto wrapped = procfs::wrapFaultsFromEnv(std::move(inner));
  EXPECT_EQ(wrapped.get(), raw);
}

TEST(FaultInjectingFs, WrapFromEnvAppliesSpec) {
  env::setForTesting("ZS_FAULT_SPEC", "loadavg:enoent@1");
  auto wrapped = procfs::wrapFaultsFromEnv(std::make_unique<StubFs>());
  EXPECT_THROW((void)wrapped->readLoadavg(), NotFoundError);
  EXPECT_EQ(wrapped->readLoadavg(), "LOADAVGBODY");
  env::setForTesting("ZS_FAULT_SPEC", "loadavg:nonsense@1");
  EXPECT_THROW((void)procfs::wrapFaultsFromEnv(std::make_unique<StubFs>()),
               ConfigError);
  env::unsetForTesting("ZS_FAULT_SPEC");
}

// --- SubsystemGuard state machine -----------------------------------------

TEST(SubsystemGuardTest, QuarantinesAfterMaxConsecutiveAndRecovers) {
  SubsystemGuard guard("test", /*maxConsecutiveErrors=*/2,
                       /*backoffPeriods=*/1);
  const auto fail = [] { throw Error("boom"); };
  const auto ok = [] {};

  EXPECT_FALSE(guard.runOnce(fail));  // consecutive 1
  EXPECT_FALSE(guard.runOnce(fail));  // consecutive 2 -> quarantine
  EXPECT_TRUE(guard.health().quarantined);
  EXPECT_EQ(guard.health().quarantines, 1u);

  EXPECT_FALSE(guard.runOnce(ok));  // still backing off: skipped, fn not run
  EXPECT_EQ(guard.health().skipped, 1u);

  EXPECT_TRUE(guard.runOnce(ok));  // retry succeeds -> recovery
  EXPECT_FALSE(guard.health().quarantined);
  EXPECT_EQ(guard.health().recoveries, 1u);
  EXPECT_EQ(guard.health().errors, 2u);
  EXPECT_EQ(guard.health().consecutiveErrors, 0u);
  EXPECT_EQ(guard.health().lastError, "boom");
}

TEST(SubsystemGuardTest, NonStdExceptionsAreContained) {
  SubsystemGuard guard("test", 1, 1);
  EXPECT_FALSE(guard.runOnce([] { throw 42; }));
  EXPECT_EQ(guard.health().lastError, "unknown exception");
  EXPECT_TRUE(guard.health().quarantined);
}

// --- MonitorSession end-to-end under injected faults ----------------------

Config faultConfig() {
  Config cfg;
  cfg.period = std::chrono::milliseconds(1000);
  cfg.jiffyHz = sim::kHz;
  cfg.signalHandler = false;
  return cfg;
}

struct FaultRun {
  std::unique_ptr<sim::SimNode> node;
  std::unique_ptr<MonitorSession> session;
  const FaultInjectingProcFs* fs = nullptr;  // owned by session
  sim::Pid pid = 0;
};

/// One simulated long-running process observed through the fault injector.
FaultRun makeFaultRun(const std::string& spec, Config cfg) {
  FaultRun run;
  run.node = std::make_unique<sim::SimNode>(CpuSet::fromList("0-3"),
                                            4ULL << 30);
  run.pid = run.node->spawnProcess("app", CpuSet::fromList("0-1"));
  sim::Behavior b;
  b.iterations = 1000;
  b.iterWorkJiffies = 10;
  run.node->spawnTask(run.pid, "app", LwpType::kMain, b);

  auto faultFs = std::make_unique<FaultInjectingProcFs>(
      procfs::makeSimProcFs(*run.node, run.pid), parseFaultSpec(spec));
  run.fs = faultFs.get();
  core::ProcessIdentity identity;
  identity.pid = run.pid;
  identity.hostname = "simnode";
  run.session =
      std::make_unique<MonitorSession>(cfg, std::move(faultFs), identity);
  return run;
}

void advanceAndSample(FaultRun& run, int samples) {
  for (int i = 1; i <= samples; ++i) {
    run.node->advance(sim::kHz);
    run.session->sampleNow(run.node->nowSeconds());
  }
}

TEST(MonitorSessionFaults, EveryFaultClassSurvivesAndIsCounted) {
  // Schedule one fault of every class, each hitting a distinct sample:
  //   sample 2: listtasks enoent  -> LWP subsystem error
  //   sample 3: taskstat garbage  -> absorbed per-tid (thread "vanishes")
  //   sample 4: meminfo empty     -> memory subsystem error
  //   sample 5: stat truncate+garbage-equivalent (empty) -> HWT error
  // (taskstat call 2 happens at sample 3: sample 2's listing failed, so
  // no per-tid reads happened that period.)
  FaultRun run = makeFaultRun(
      "listtasks:enoent@2,taskstat:garbage@2,meminfo:empty@4,stat:empty@5",
      faultConfig());
  advanceAndSample(run, 8);

  const MonitorHealth health = run.session->health();
  EXPECT_EQ(health.samplesTaken, 8u);
  EXPECT_EQ(health.samplesDropped, 0u);
  // Degraded samples: 2 (lwp), 4 (memory), 5 (hwt).  The garbage taskstat
  // at sample 3 is absorbed inside LwpTracker (the tid is retired for the
  // period), by design — it must NOT degrade the whole subsystem.
  EXPECT_EQ(health.samplesDegraded, 3u);
  EXPECT_EQ(health.quarantinedCount(), 0);

  ASSERT_EQ(health.subsystems.size(), 5u);  // lwp hwt memory gpu progress
  const auto& lwp = health.subsystems[0];
  const auto& hwt = health.subsystems[1];
  const auto& mem = health.subsystems[2];
  EXPECT_EQ(lwp.name, "lwp");
  EXPECT_EQ(lwp.errors, 1u);
  EXPECT_NE(lwp.lastError.find("injected fault"), std::string::npos);
  EXPECT_EQ(hwt.name, "hwt");
  EXPECT_EQ(hwt.errors, 1u);
  EXPECT_EQ(mem.name, "memory");
  EXPECT_EQ(mem.errors, 1u);

  // The injector's own ledger matches the schedule.
  EXPECT_EQ(run.fs->injectedCount(FaultSite::kListTasks), 1u);
  EXPECT_EQ(run.fs->injectedCount(FaultSite::kTaskStat), 1u);
  EXPECT_EQ(run.fs->injectedCount(FaultSite::kMeminfo), 1u);
  EXPECT_EQ(run.fs->injectedCount(FaultSite::kStat), 1u);

  // The observed thread was retired for the faulted periods, then revived:
  // 8 samples minus sample 2 (no listing) and sample 3 (corrupt taskstat).
  const auto& lwps = run.session->lwps().records();
  ASSERT_EQ(lwps.size(), 1u);
  EXPECT_TRUE(lwps.begin()->second.alive);
  EXPECT_EQ(lwps.begin()->second.samples.size(), 6u);

  // Telemetry is surfaced, with counts matching the schedule.
  const std::string report = run.session->report();
  EXPECT_NE(report.find("Monitor health:"), std::string::npos);
  EXPECT_NE(report.find("Samples: 8 taken, 3 degraded, 0 dropped"),
            std::string::npos);
  std::ostringstream log;
  run.session->writeLog(log);
  EXPECT_NE(log.str().find("=== CSV: monitor health ==="), std::string::npos);
  EXPECT_NE(log.str().find("time,samples_taken,samples_degraded,"
                           "samples_dropped,loop_overruns,"
                           "subsystems_quarantined"),
            std::string::npos);
}

TEST(MonitorSessionFaults, QuarantineBacksOffExponentiallyAndRecovers) {
  Config cfg = faultConfig();
  cfg.maxConsecutiveErrors = 2;
  cfg.retryBackoffPeriods = 2;
  // meminfo calls 1-3 fail; the quarantine stretches them across samples:
  //   s1 fail, s2 fail -> quarantine (backoff 2) -> s3,s4 skipped
  //   s5 retry fails (call 3) -> backoff 4 -> s6-s9 skipped
  //   s10 retry succeeds (call 4) -> recovery; s11,s12 clean
  FaultRun run = makeFaultRun("meminfo:garbage@1..3", cfg);
  advanceAndSample(run, 12);

  const MonitorHealth health = run.session->health();
  const auto& mem = health.subsystems[2];
  EXPECT_EQ(mem.name, "memory");
  EXPECT_EQ(mem.errors, 3u);
  EXPECT_EQ(mem.quarantines, 1u);
  EXPECT_EQ(mem.recoveries, 1u);
  EXPECT_EQ(mem.skipped, 6u);
  EXPECT_FALSE(mem.quarantined);
  EXPECT_EQ(health.samplesTaken, 12u);
  EXPECT_EQ(health.samplesDegraded, 9u);  // s1-s9
  // Memory samples only from the healthy periods s10-s12.
  EXPECT_EQ(run.session->memory().samples().size(), 3u);
}

TEST(MonitorSessionFaults, StickyFaultStaysQuarantinedButRunCompletes) {
  Config cfg = faultConfig();
  cfg.maxConsecutiveErrors = 2;
  cfg.retryBackoffPeriods = 2;
  FaultRun run = makeFaultRun("listtasks:enoent@3..", cfg);
  advanceAndSample(run, 12);

  const MonitorHealth health = run.session->health();
  const auto& lwp = health.subsystems[0];
  EXPECT_EQ(lwp.name, "lwp");
  EXPECT_TRUE(lwp.quarantined);
  EXPECT_EQ(lwp.quarantines, 1u);
  EXPECT_EQ(lwp.recoveries, 0u);
  EXPECT_GE(lwp.errors, 3u);
  EXPECT_GE(lwp.skipped, 5u);
  // The thread only has samples from the healthy periods; the enoent
  // throws before the tracker's vanish-marking, so its record is stale
  // (still flagged alive) but intact — never thrown on, never corrupted.
  const auto& lwps = run.session->lwps().records();
  ASSERT_EQ(lwps.size(), 1u);
  EXPECT_EQ(lwps.begin()->second.samples.size(), 2u);
  EXPECT_NE(run.session->report().find("quarantined"), std::string::npos);
}

TEST(MonitorSessionFaults, ThrowingGpuDeviceIsQuarantined) {
  class ThrowingGpu final : public gpu::GpuDevice {
   public:
    [[nodiscard]] int visibleIndex() const override { return 0; }
    [[nodiscard]] int physicalIndex() const override { return 0; }
    [[nodiscard]] std::string model() const override { return "broken"; }
    [[nodiscard]] gpu::Sample query() override {
      throw std::runtime_error("management library lost the device");
    }
    [[nodiscard]] gpu::MemoryInfo memoryInfo() const override { return {}; }
  };

  Config cfg = faultConfig();
  cfg.maxConsecutiveErrors = 2;
  cfg.retryBackoffPeriods = 2;
  FaultRun run;
  run.node = std::make_unique<sim::SimNode>(CpuSet::fromList("0-1"),
                                            1ULL << 30);
  run.pid = run.node->spawnProcess("app", CpuSet{});
  sim::Behavior b;
  b.iterations = 100;
  b.iterWorkJiffies = 10;
  run.node->spawnTask(run.pid, "app", LwpType::kMain, b);
  run.session = std::make_unique<MonitorSession>(
      cfg, procfs::makeSimProcFs(*run.node), core::ProcessIdentity{},
      gpu::DeviceList{std::make_shared<ThrowingGpu>()});
  advanceAndSample(run, 6);

  const MonitorHealth health = run.session->health();
  const auto& gpuHealth = health.subsystems[3];
  EXPECT_EQ(gpuHealth.name, "gpu");
  EXPECT_EQ(gpuHealth.errors, 3u);  // s1, s2, failed retry at s5
  EXPECT_TRUE(gpuHealth.quarantined);
  EXPECT_NE(gpuHealth.lastError.find("lost the device"), std::string::npos);
  // The other subsystems are untouched.
  EXPECT_EQ(health.subsystems[0].errors, 0u);
  EXPECT_EQ(health.samplesTaken, 6u);
}

TEST(MonitorSessionFaults, ThrowingProgressSinkIsContained) {
  Config cfg = faultConfig();
  cfg.heartbeatPeriods = 1;  // heartbeat (and thus the sink) every sample
  cfg.maxConsecutiveErrors = 3;
  FaultRun run = makeFaultRun("", cfg);
  run.session->setProgressSink(
      [](const std::string&) { throw Error("sink pipe broke"); });
  advanceAndSample(run, 5);

  const MonitorHealth health = run.session->health();
  const auto& progress = health.subsystems.back();
  EXPECT_EQ(progress.name, "progress");
  EXPECT_GE(progress.errors, 3u);
  EXPECT_TRUE(progress.quarantined);
  EXPECT_EQ(health.subsystems[0].errors, 0u);  // lwp unaffected
}

// --- The async thread boundary --------------------------------------------

/// Valid once, hostile forever after: every sampling read throws — with a
/// mix of exception types, including ones outside the zerosum::Error
/// hierarchy and a non-std exception.
class HostileFs final : public procfs::ProcFs {
 public:
  [[nodiscard]] int selfPid() const override { return 42; }
  [[nodiscard]] std::vector<int> listPids() const override { return {42}; }
  [[nodiscard]] std::vector<int> listTasks(int) const override {
    throw 42;  // not even a std::exception
  }
  [[nodiscard]] std::string readProcessStatus(int) const override {
    return "Pid:\t42\nState:\tR (running)\nCpus_allowed_list:\t0-1\n"
           "VmRSS:\t100 kB\n";
  }
  [[nodiscard]] std::string readTaskStat(int, int) const override {
    throw std::runtime_error("stat read failed");
  }
  [[nodiscard]] std::string readTaskStatus(int, int) const override {
    throw std::runtime_error("status read failed");
  }
  [[nodiscard]] std::string readMeminfo() const override {
    throw NotFoundError("/proc/meminfo");
  }
  [[nodiscard]] std::string readStat() const override {
    throw std::logic_error("stat is gone");
  }
  [[nodiscard]] std::string readLoadavg() const override {
    throw ParseError("loadavg");
  }
};

TEST(MonitorSessionFaults, NothingEscapesMonitorLoopOrStop) {
  Config cfg;
  cfg.signalHandler = false;
  cfg.maxConsecutiveErrors = 100;  // keep every subsystem trying
  MonitorSession session(cfg, std::make_unique<HostileFs>());

  std::atomic<int> periods{0};
  // Five virtual periods of a provider that throws on every read: if any
  // exception crossed the thread boundary the process would terminate.
  session.start(std::make_unique<VirtualPacer>(
      [&periods](std::chrono::milliseconds) { return ++periods < 5; }));
  while (periods.load() < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NO_THROW(session.stop());

  const MonitorHealth health = session.health();
  EXPECT_EQ(health.samplesTaken, 5u);  // 4 in-loop + the final stop() sample
  EXPECT_EQ(health.samplesDegraded, health.samplesTaken);
  EXPECT_GE(health.subsystems[0].errors, 1u);  // lwp: threw 42
  EXPECT_GE(health.subsystems[1].errors, 1u);  // hwt: std::logic_error
  EXPECT_GE(health.subsystems[2].errors, 1u);  // memory: NotFoundError
  EXPECT_EQ(health.subsystems[0].lastError, "unknown exception");
  EXPECT_NO_THROW((void)session.report());
}

}  // namespace
}  // namespace zerosum
