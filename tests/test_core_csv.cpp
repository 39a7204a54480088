// The per-process log's CSV bytes and the affinity change events behind
// its LWP table.  The expected text pins the log format byte for byte: it
// is what the earlier writer, which sent each field through
// std::ostream, printed for the same records.
#include "core/csv_export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/records.hpp"

namespace zerosum::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

LwpSample lwpSample(double t, char state, std::uint64_t base, int processor) {
  LwpSample s;
  s.timeSeconds = t;
  s.state = state;
  s.utime = base * 9;
  s.stime = base;
  s.utimeDelta = 90;
  s.stimeDelta = 10;
  s.voluntaryCtx = base + 3;
  s.nonvoluntaryCtx = base / 2;
  s.minorFaults = base * 100;
  s.majorFaults = base % 3;
  s.processor = processor;
  return s;
}

std::map<int, LwpRecord> logLwps() {
  const CpuSet frontier = CpuSet::fromList(
      "1-7,9-15,17-23,25-31,33-39,41-47,49-55,57-63,65-71,73-79,81-87,"
      "89-95,97-103,105-111,113-119,121-127");
  std::map<int, LwpRecord> lwps;
  LwpRecord& rebound = lwps[100];  // from 1-7 to 3 mid-run
  rebound.tid = 100;
  rebound.type = LwpType::kMain;
  rebound.addSample(lwpSample(0.0005, 'R', 10, 1), CpuSet::fromList("1-7"));
  rebound.addSample(lwpSample(1.0015, 'R', 20, 2), CpuSet::fromList("1-7"));
  rebound.addSample(lwpSample(2.0, 'R', 30, 3), CpuSet::fromList("3"));
  rebound.addSample(lwpSample(3.9999, 'S', 40, 3), CpuSet::fromList("3"));

  LwpRecord& omp = lwps[101];  // empty affinity for its first samples
  omp.tid = 101;
  omp.type = LwpType::kOpenMp;
  omp.addSample(lwpSample(1.0, 'R', 0, -1), CpuSet{});
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  LwpSample saturated;
  saturated.timeSeconds = 2.0;
  saturated.state = 'R';
  saturated.utime = saturated.stime = kMax;
  saturated.utimeDelta = saturated.stimeDelta = kMax;
  saturated.voluntaryCtx = saturated.nonvoluntaryCtx = kMax;
  saturated.minorFaults = saturated.majorFaults = kMax;
  saturated.processor = -1;
  omp.addSample(saturated, CpuSet{});
  omp.addSample(lwpSample(3.0, 'S', 7, 64),
                CpuSet::fromList("0,2,4-6,63-65,127,2047"));

  LwpRecord& other = lwps[102];  // loses its affinity, then regains it
  other.tid = 102;
  other.type = LwpType::kOther;
  other.addSample(lwpSample(1e6 + 0.0625, 'D', 5, 9), frontier);
  other.addSample(lwpSample(-0.0, 'R', 6, 0), CpuSet{});
  other.addSample(lwpSample(12345.6785, 'R', 7, 121), frontier);

  LwpRecord& monitor = lwps[103];
  monitor.tid = 103;
  monitor.type = LwpType::kZeroSum;
  monitor.addSample(lwpSample(4.0, 'S', 1, 2047),
                    CpuSet::firstN(CpuSet::kMaxCpus));

  lwps[104].tid = 104;  // never sampled: no rows
  lwps[104].type = LwpType::kGpuHelper;
  return lwps;
}

TEST(CsvBytes, LwpSeries) {
  std::ostringstream out;
  CsvExporter::writeLwpSeries(out, logLwps());
  EXPECT_EQ(out.str(),
      "time,tid,type,state,utime,stime,utime_delta,stime_delta,vctx,nvctx,"
      "minflt,majflt,processor,affinity\n"
      "0.001,100,Main,R,90,10,90,10,13,5,1000,1,1,\"1-7\"\n"
      "1.002,100,Main,R,180,20,90,10,23,10,2000,2,2,\"1-7\"\n"
      "2.000,100,Main,R,270,30,90,10,33,15,3000,0,3,\"3\"\n"
      "4.000,100,Main,S,360,40,90,10,43,20,4000,1,3,\"3\"\n"
      "1.000,101,OpenMP,R,0,0,90,10,3,0,0,0,-1,\"\"\n"
      "2.000,101,OpenMP,R,18446744073709551615,18446744073709551615,"
      "18446744073709551615,18446744073709551615,18446744073709551615,"
      "18446744073709551615,18446744073709551615,18446744073709551615,-1,"
      "\"\"\n"
      "3.000,101,OpenMP,S,63,7,90,10,10,3,700,1,64,\"0,2,4-6,63-65,127,"
      "2047\"\n"
      "1000000.062,102,Other,D,45,5,90,10,8,2,500,2,9,\"1-7,9-15,17-23,"
      "25-31,33-39,41-47,49-55,57-63,65-71,73-79,81-87,89-95,97-103,"
      "105-111,113-119,121-127\"\n"
      "-0.000,102,Other,R,54,6,90,10,9,3,600,0,0,\"\"\n"
      "12345.678,102,Other,R,63,7,90,10,10,3,700,1,121,\"1-7,9-15,17-23,"
      "25-31,33-39,41-47,49-55,57-63,65-71,73-79,81-87,89-95,97-103,"
      "105-111,113-119,121-127\"\n"
      "4.000,103,ZeroSum,S,9,1,90,10,4,0,100,1,2047,\"0-2047\"\n");
}

TEST(CsvBytes, HwtSeries) {
  std::map<std::size_t, HwtRecord> hwts;
  HwtSample a;
  a.timeSeconds = 1.0;
  a.userPct = 12.345;
  a.systemPct = 0.005;
  a.idlePct = 87.65;
  HwtSample b;
  b.timeSeconds = 2.0;
  b.userPct = 99.995;
  b.systemPct = -0.004;
  b.idlePct = 100.0;
  hwts[0].cpu = 0;
  hwts[0].samples = {a, b};
  HwtSample c;
  c.timeSeconds = 1.5;
  c.userPct = kNan;
  c.systemPct = kInf;
  c.idlePct = -kInf;
  hwts[127].cpu = 127;
  hwts[127].samples = {c};
  std::ostringstream out;
  CsvExporter::writeHwtSeries(out, hwts);
  EXPECT_EQ(out.str(),
      "time,cpu,user_pct,system_pct,idle_pct\n"
      "1.000,0,12.35,0.01,87.65\n"
      "2.000,0,100.00,-0.00,100.00\n"
      "1.500,127,nan,inf,-inf\n");
}

TEST(CsvBytes, GpuSeries) {
  std::vector<GpuRecord> gpus(2);
  gpus[0].visibleIndex = 0;
  gpus[0].physicalIndex = 4;
  gpu::Sample first;
  first[gpu::Metric::kClockGfxMhz] = 1700.0;
  first[gpu::Metric::kDeviceBusyPct] = -12.5;
  first[gpu::Metric::kEnergyAverageJ] = kNan;
  first[gpu::Metric::kPowerAverageW] = kInf;
  first[gpu::Metric::kTemperatureC] = -kInf;
  first[gpu::Metric::kUsedVramBytes] = 68702699520.0;
  first[gpu::Metric::kVoltageMv] = 0.0000005;
  first[gpu::Metric::kVcnActivity] = -0.0;
  gpu::Sample second;
  second[gpu::Metric::kDeviceBusyPct] = 1e20;
  second[gpu::Metric::kMemoryBusyPct] = -kNan;
  second[gpu::Metric::kUsedGttBytes] = 18446744073709551615.0;
  second[gpu::Metric::kGfxActivity] = -123456.0000005;
  gpus[0].samples = {{1.0, first}, {2.25, second}};
  gpus[1].visibleIndex = 1;
  gpus[1].physicalIndex = 5;
  gpu::Sample third;
  third[gpu::Metric::kGfxActivityPct] = 33.3333333333;
  gpus[1].samples = {{0.5, third}};
  std::ostringstream out;
  CsvExporter::writeGpuSeries(out, gpus);
  EXPECT_EQ(out.str(),
      "time,gpu,metric,value\n"
      "1.000,0,\"Clock Frequency, GLX (MHz)\",1700.000000\n"
      "1.000,0,\"Device Busy %\",-12.500000\n"
      "1.000,0,\"Energy Average (J)\",nan\n"
      "1.000,0,\"Power Average (W)\",inf\n"
      "1.000,0,\"Temperature (C)\",-inf\n"
      "1.000,0,\"UVD|VCN Activity\",-0.000000\n"
      "1.000,0,\"Used VRAM Bytes\",68702699520.000000\n"
      "1.000,0,\"Voltage (mV)\",0.000000\n"
      "2.250,0,\"Device Busy %\",100000000000000000000.000000\n"
      "2.250,0,\"GFX Activity\",-123456.000001\n"
      "2.250,0,\"Memory Busy %\",-nan\n"
      "2.250,0,\"Used GTT Bytes\",18446744073709551616.000000\n"
      "0.500,1,\"GFX Activity %\",33.333333\n");
}

/// Records the size of every write the stream passes on.
class WriteLog final : public std::streambuf {
 public:
  std::string text;
  std::vector<std::streamsize> writes;

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      text.push_back(traits_type::to_char_type(ch));
      writes.push_back(1);
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    writes.push_back(n);
    return n;
  }
};

TEST(CsvBytes, LongSectionGoesOutInWholeChunks) {
  // ~4 000 rows: the section spans many 16 KiB chunks, and rows straddle
  // their edges.
  std::map<int, LwpRecord> lwps;
  std::string rows;
  for (int tid = 1; tid <= 4; ++tid) {
    LwpRecord& record = lwps[tid];
    record.tid = tid;
    for (int i = 0; i < 1000; ++i) {
      const LwpSample s = lwpSample(i * 0.25, 'R', static_cast<std::uint64_t>(
                                                      i * tid), i % 8);
      const CpuSet cpus = CpuSet::range(static_cast<std::size_t>(i / 100),
                                        static_cast<std::size_t>(i / 10));
      record.addSample(s, cpus);
      // The same row, rendered on its own.
      std::map<int, LwpRecord> single;
      single[tid].tid = tid;
      single[tid].addSample(s, cpus);
      std::ostringstream one;
      CsvExporter::writeLwpSeries(one, single);
      rows += one.str().substr(one.str().find('\n') + 1);
    }
  }
  WriteLog sink;
  std::ostream out(&sink);
  CsvExporter::writeLwpSeries(out, lwps);
  EXPECT_EQ(sink.text.substr(sink.text.find('\n') + 1), rows);
  ASSERT_GT(sink.writes.size(), 4u);
  for (std::size_t i = 0; i + 1 < sink.writes.size(); ++i) {
    EXPECT_EQ(sink.writes[i], 16 * 1024) << "write " << i;
  }
  EXPECT_LE(sink.writes.back(), 16 * 1024);
}

TEST(Records, AffinityChangeEventsMatchPerSampleAffinity) {
  const std::vector<CpuSet> pool = {
      CpuSet{}, CpuSet::fromList("1-7"), CpuSet::fromList("3"),
      CpuSet::fromList("0-127"), CpuSet::fromList("2047")};
  std::mt19937_64 rng(1848);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    LwpRecord record;
    // What each LwpSample used to carry: its own copy of the affinity.
    std::vector<CpuSet> perSample;
    std::size_t changes = 0;
    const std::size_t length = rng() % 40;
    for (std::size_t i = 0; i < length; ++i) {
      // Mostly stable, as a bound thread is; sometimes rebound.
      const CpuSet previous = perSample.empty() ? CpuSet{} : perSample.back();
      const CpuSet cpus =
          !perSample.empty() && rng() % 4 != 0 ? previous
                                               : pool[rng() % pool.size()];
      changes += cpus == previous ? 0 : 1;
      perSample.push_back(cpus);
      record.addSample(LwpSample{}, cpus);

      // The old definitions, over the per-sample copies.
      bool changed = false;
      for (std::size_t j = 1; j < perSample.size(); ++j) {
        changed = changed || !(perSample[j] == perSample[j - 1]);
      }
      EXPECT_EQ(record.lastAffinity(), perSample.back());
      EXPECT_EQ(record.affinityChanged(), changed);
    }
    EXPECT_EQ(record.affinityChanges.size(), changes);
    // Replaying the events gives every sample's affinity back.
    auto change = record.affinityChanges.begin();
    CpuSet current;
    for (std::size_t i = 0; i < perSample.size(); ++i) {
      if (change != record.affinityChanges.end() &&
          change->firstSample == i) {
        current = change->cpus;
        ++change;
      }
      EXPECT_EQ(current, perSample[i]) << "sample " << i;
    }
    EXPECT_EQ(change, record.affinityChanges.end());
  }
}

}  // namespace
}  // namespace zerosum::core
