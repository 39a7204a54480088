// Micro-benchmarks (google-benchmark): the per-operation costs that bound
// ZeroSum's overhead budget — /proc text parsing, a full monitor sample as
// a function of thread count, the MPI interposition per message, CpuSet
// parsing, the simulator's scheduler tick, the tsdb write path's kernels
// (the WAL/segment CRC and the segment value codec), the query answer
// emitter (json::Writer's numbers and a whole snapshot answer), and a
// read-plane refresh at full retention against concurrent ingest.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "aggregator/query.hpp"
#include "aggregator/store.hpp"
#include "common/cpuset.hpp"
#include "common/json.hpp"
#include "core/monitor.hpp"
#include "mpisim/patterns.hpp"
#include "topology/presets.hpp"
#include "mpisim/recorder.hpp"
#include "procfs/parse.hpp"
#include "procfs/simfs.hpp"
#include "sim/workload.hpp"
#include "tsdb/codec.hpp"
#include "tsdb/crc32.hpp"

namespace {

using namespace zerosum;

void BM_ParseTaskStat(benchmark::State& state) {
  const std::string line =
      "51334 (miniqmc) R 51300 51334 51300 34816 51334 4194304 "
      "881204 0 12 0 6394 1248 0 0 20 0 9 0 8941321 108000000 220301 "
      "18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(procfs::parseTaskStat(line));
  }
}
BENCHMARK(BM_ParseTaskStat);

void BM_ParseStatus(benchmark::State& state) {
  const std::string text =
      "Name:\tminiqmc\nState:\tR (running)\nTgid:\t51334\nPid:\t51334\n"
      "VmHWM:\t904532 kB\nVmRSS:\t881204 kB\nThreads:\t9\n"
      "Cpus_allowed_list:\t1-7\nvoluntary_ctxt_switches:\t365488\n"
      "nonvoluntary_ctxt_switches:\t4\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(procfs::parseStatus(text));
  }
}
BENCHMARK(BM_ParseStatus);

void BM_ParseMeminfo(benchmark::State& state) {
  const std::string text =
      "MemTotal:       527988388 kB\nMemFree:        483178044 kB\n"
      "MemAvailable:   508065400 kB\nBuffers:            4088 kB\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(procfs::parseMeminfo(text));
  }
}
BENCHMARK(BM_ParseMeminfo);

void BM_CpuSetParseFormat(benchmark::State& state) {
  const std::string list =
      "1-7,9-15,17-23,25-31,33-39,41-47,49-55,57-63,65-71,73-79,81-87,"
      "89-95,97-103,105-111,113-119,121-127";
  for (auto _ : state) {
    const CpuSet set = CpuSet::fromList(list);
    benchmark::DoNotOptimize(set.toList());
  }
}
BENCHMARK(BM_CpuSetParseFormat);

/// One full monitor sample against a simulated rank with N team threads:
/// this is the work the async thread does once per period.
void BM_MonitorSample(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  sim::SimNode node(CpuSet::fromList("0-63"), 64ULL << 30);
  sim::MiniQmcConfig qmc;
  qmc.ompThreads = threads;
  qmc.steps = 1000000;  // effectively endless during the benchmark
  qmc.workPerStep = 50;
  const auto rank = sim::buildMiniQmcRank(
      node, CpuSet::range(0, static_cast<std::size_t>(threads)), qmc,
      node.hwts());
  core::Config cfg;
  cfg.jiffyHz = sim::kHz;
  cfg.signalHandler = false;
  core::MonitorSession session(cfg, procfs::makeSimProcFs(node, rank.pid));
  double t = 0.0;
  for (auto _ : state) {
    node.advance(1);
    t += 1.0;
    session.sampleNow(t);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(threads));
}
BENCHMARK(BM_MonitorSample)->Arg(2)->Arg(8)->Arg(32);

void BM_CommRecorderPerMessage(benchmark::State& state) {
  mpisim::Recorder recorder(0);
  int peer = 0;
  for (auto _ : state) {
    recorder.recordSend(peer, 1 << 20);
    peer = (peer + 1) % 64;
  }
  benchmark::DoNotOptimize(recorder.totalBytesSent());
}
BENCHMARK(BM_CommRecorderPerMessage);

void BM_SchedulerTick(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  sim::SimNode node(CpuSet::fromList("0-127"), 512ULL << 30);
  const sim::Pid pid = node.spawnProcess("bench", CpuSet{});
  sim::Behavior busy;
  busy.iterations = 1;
  busy.iterWorkJiffies = 1ULL << 40;  // effectively endless
  for (int t = 0; t < tasks; ++t) {
    node.spawnTask(pid, "worker", LwpType::kOther, busy);
  }
  for (auto _ : state) {
    node.advance(1);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_SchedulerTick)->Arg(8)->Arg(72);

void BM_ReportRender(benchmark::State& state) {
  // Rendering the Listing-2 report for a 9-LWP rank (the end-of-run cost).
  std::map<int, core::LwpRecord> lwps;
  for (int tid = 100; tid < 109; ++tid) {
    core::LwpRecord r;
    r.tid = tid;
    r.type = LwpType::kOpenMp;
    for (int i = 0; i < 60; ++i) {
      core::LwpSample sample;
      sample.timeSeconds = i;
      sample.utimeDelta = 90;
      sample.stimeDelta = 2;
      r.addSample(sample, CpuSet::fromList("1-7"));
    }
    lwps[tid] = r;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Reporter::renderLwpTable(lwps));
  }
}
BENCHMARK(BM_ReportRender);

void BM_CsvExportPerPeriod(benchmark::State& state) {
  std::map<int, core::LwpRecord> lwps;
  core::LwpRecord r;
  r.tid = 1;
  for (int i = 0; i < 100; ++i) {
    r.addSample(core::LwpSample{}, CpuSet::fromList("1-7"));
  }
  lwps[1] = r;
  for (auto _ : state) {
    std::ostringstream out;
    core::CsvExporter::writeLwpSeries(out, lwps);
    benchmark::DoNotOptimize(out.str());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CsvExportPerPeriod);

void BM_GyrokineticPatternGen(benchmark::State& state) {
  mpisim::patterns::GyrokineticParams params;
  params.steps = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpisim::patterns::toMatrix(
        512, [&](const mpisim::patterns::SendFn& send) {
          mpisim::patterns::gyrokineticPic(512, params, send);
        }));
  }
}
BENCHMARK(BM_GyrokineticPatternGen);

void BM_TopologyBuildFrontier(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::presets::frontier());
  }
}
BENCHMARK(BM_TopologyBuildFrontier);

void BM_Crc32(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(1);
  std::string bytes(size, '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(rng());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsdb::crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(64 * 1024);

/// One segment block's value column: 600 fine windows of a slowly
/// varying gauge, as compaction encodes it three times per block.
void BM_EncodeValues(benchmark::State& state) {
  std::mt19937_64 rng(7);
  std::vector<double> values;
  double v = 250.0;
  for (int i = 0; i < 600; ++i) {
    v += static_cast<double>(static_cast<int>(rng() % 100) - 50) / 100.0;
    values.push_back(v);
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    tsdb::encodeValues(values, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_EncodeValues);

/// json::Writer's number formatting: 1 000 doubles, a third integral
/// (the integer path), a third with one decimal and a third arbitrary
/// (both to_chars(general)).
void BM_JsonNumbers(benchmark::State& state) {
  std::mt19937_64 rng(11);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    const auto draw = static_cast<double>(rng() % 200000) - 100000.0;
    switch (i % 3) {
      case 0: values.push_back(draw); break;
      case 1: values.push_back(draw / 10.0); break;
      default:
        values.push_back(draw * 1.000123456789 / 7.0);
        break;
    }
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    json::Writer w(out);
    w.beginArray();
    for (const double v : values) {
      w.value(v);
    }
    w.endArray();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_JsonNumbers);

/// A `snapshot` answer for one rank of the durable_ingest shape: 145
/// series, each with a newest fine and coarse window of a gauge.
void BM_SnapshotBody(benchmark::State& state) {
  aggregator::RollupStore store;
  std::mt19937_64 rng(13);
  for (int period = 0; period < 43; ++period) {
    for (int m = 0; m < 145; ++m) {
      const aggregator::SeriesKey key{"job", 0,
                                      "hwt." + std::to_string(m) + ".user_pct"};
      store.ingest(key, period + 0.5,
                   static_cast<double>(rng() % 10000) / 100.0);
    }
  }
  aggregator::QueryRequest request;
  request.op = "snapshot";
  request.job = "job";
  request.rank = 0;
  const aggregator::StoreSnapshot snapshot =
      store.snapshotNewest(request.job, request.rank, request.metric);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string body = aggregator::snapshotBody(snapshot, request);
    bytes = body.size();
    benchmark::DoNotOptimize(body.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapshotBody);

/// A read-plane refresh at full retention: 4 640 series (32 ranks x 145
/// metrics, the benchmark's root store) holding 600 fine and 70 coarse
/// windows each, while a second thread ingests the next periods.  The
/// time is one snapshot(), taken every 10 ms; `drop_ms` is letting go of
/// the previous one, as the query service does at each refresh; and
/// `max_ingest_wait_ms` is the longest one ingest call of the other
/// thread took over the run (a refresh holds the store lock while it
/// builds).
void BM_StoreSnapshotFullRetention(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  aggregator::RollupStore store;  // retains 600 fine, 360 coarse windows
  std::vector<aggregator::SeriesKey> keys;
  for (int rank = 0; rank < 32; ++rank) {
    for (int m = 0; m < 145; ++m) {
      keys.push_back({"job", rank, "hwt." + std::to_string(m) + ".user_pct"});
    }
  }
  std::vector<aggregator::RollupStore::SeriesRef> refs(keys.size());
  constexpr int kPeriods = 700;  // 600 fine windows, 70 coarse
  for (int period = 0; period < kPeriods; ++period) {
    for (std::size_t s = 0; s < keys.size(); ++s) {
      store.ingest(keys[s], refs[s], period + 0.5, static_cast<double>(s));
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> maxWaitNs{0};
  std::thread ingest([&] {
    std::int64_t longest = 0;
    for (int period = kPeriods; !stop.load(std::memory_order_relaxed);
         ++period) {
      for (std::size_t s = 0; s < keys.size(); ++s) {
        const auto start = Clock::now();
        store.ingest(keys[s], refs[s], period + 0.5, static_cast<double>(s));
        longest = std::max<std::int64_t>(
            longest, std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - start)
                         .count());
      }
      maxWaitNs.store(longest, std::memory_order_relaxed);
    }
  });
  std::optional<aggregator::StoreSnapshot> previous;
  double dropSeconds = 0.0;
  for (auto _ : state) {
    const auto start = Clock::now();
    aggregator::StoreSnapshot snapshot = store.snapshot();
    const auto built = Clock::now();
    previous = std::move(snapshot);
    const auto dropped = Clock::now();
    state.SetIterationTime(std::chrono::duration<double>(built - start).count());
    dropSeconds += std::chrono::duration<double>(dropped - built).count();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  ingest.join();
  state.counters["drop_ms"] =
      dropSeconds * 1e3 / static_cast<double>(state.iterations());
  state.counters["max_ingest_wait_ms"] =
      static_cast<double>(maxWaitNs.load(std::memory_order_relaxed)) / 1e6;
}
BENCHMARK(BM_StoreSnapshotFullRetention)
    ->Iterations(40)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

}  // namespace

// BENCHMARK_MAIN() expanded by hand so the run also leaves a
// machine-readable result file behind by default: unless the caller
// already chose an output, inject --benchmark_out=BENCH_micro.json.
// Explicit --benchmark_out/--benchmark_format flags win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool hasOut = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      hasOut = true;
    }
  }
  std::string outFlag = "--benchmark_out=BENCH_micro.json";
  std::string formatFlag = "--benchmark_out_format=json";
  if (!hasOut) {
    args.push_back(outFlag.data());
    args.push_back(formatFlag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!hasOut) {
    std::cout << "wrote BENCH_micro.json\n";
  }
  return 0;
}
