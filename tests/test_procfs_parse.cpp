#include "procfs/parse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace zerosum::procfs {
namespace {

// Real-world samples of each format; the mutation test at the end starts
// from these.
const std::string kStatusSample =
    "Name:\tminiqmc\n"
    "Umask:\t0022\n"
    "State:\tR (running)\n"
    "Tgid:\t51334\n"
    "Ngid:\t0\n"
    "Pid:\t51334\n"
    "PPid:\t51300\n"
    "VmHWM:\t  904532 kB\n"
    "VmRSS:\t  881204 kB\n"
    "Threads:\t9\n"
    "Cpus_allowed:\tfe\n"
    "Cpus_allowed_list:\t1-7\n"
    "voluntary_ctxt_switches:\t365488\n"
    "nonvoluntary_ctxt_switches:\t4\n";

// A representative kernel stat line (52 fields).
const std::string kTaskStatSample =
    "51334 (miniqmc) R 51300 51334 51300 34816 51334 4194304 "
    "881204 0 12 0 6394 1248 0 0 20 0 9 0 8941321 108000000 220301 "
    "18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0 "
    "0 0 0 0 0 0 0 0\n";

const std::string kMeminfoSample =
    "MemTotal:       527988388 kB\n"
    "MemFree:        483178044 kB\n"
    "MemAvailable:   508065400 kB\n"
    "Buffers:            4088 kB\n"
    "Cached:         22306832 kB\n";

const std::string kLoadavgSample = "0.52 0.58 0.59 2/1345 12345\n";

const std::string kStatSample =
    "cpu  100 5 50 800 10 2 3 0 0 0\n"
    "cpu0 60 5 30 400 5 1 2 0 0 0\n"
    "cpu1 40 0 20 400 5 1 1 0 0 0\n"
    "intr 12345 0 0\n"
    "ctxt 999\n";

TEST(ParseStatus, RealWorldSample) {
  const ProcStatus s = parseStatus(kStatusSample);
  EXPECT_EQ(s.name, "miniqmc");
  EXPECT_EQ(s.state, 'R');
  EXPECT_EQ(s.pid, 51334);
  EXPECT_EQ(s.tgid, 51334);
  EXPECT_EQ(s.vmRssKb, 881204u);
  EXPECT_EQ(s.vmHwmKb, 904532u);
  EXPECT_EQ(s.threads, 9);
  EXPECT_EQ(s.cpusAllowed.toList(), "1-7");
  EXPECT_EQ(s.voluntaryCtxSwitches, 365488u);
  EXPECT_EQ(s.nonvoluntaryCtxSwitches, 4u);
}

TEST(ParseStatus, IgnoresUnknownKeys) {
  const ProcStatus s = parseStatus("Name:\tx\nBogusKey:\tvalue\nPid:\t1\n");
  EXPECT_EQ(s.name, "x");
  EXPECT_EQ(s.pid, 1);
}

TEST(ParseStatus, MalformedKnownKeyThrows) {
  EXPECT_THROW(parseStatus("Pid:\tabc\n"), ParseError);
  EXPECT_THROW(parseStatus("VmRSS:\t\n"), ParseError);
  EXPECT_THROW(parseStatus("Cpus_allowed_list:\tx-y\n"), ParseError);
}

TEST(ParseStatus, HexMaskFallbackWhenListAbsent) {
  // Older kernels print only the hex mask.
  const ProcStatus s = parseStatus("Pid:\t1\nCpus_allowed:\tfe\n");
  EXPECT_EQ(s.cpusAllowed.toList(), "1-7");
}

TEST(ParseStatus, ListTakesPrecedenceOverMask) {
  const ProcStatus s = parseStatus(
      "Pid:\t1\nCpus_allowed:\tff\nCpus_allowed_list:\t1-7\n");
  EXPECT_EQ(s.cpusAllowed.toList(), "1-7");
}

TEST(ParseStatus, EmptyInputYieldsDefaults) {
  const ProcStatus s = parseStatus("");
  EXPECT_EQ(s.pid, 0);
  EXPECT_TRUE(s.cpusAllowed.empty());
}

TEST(ParseTaskStat, RealWorldSample) {
  const TaskStat s = parseTaskStat(kTaskStatSample);
  EXPECT_EQ(s.tid, 51334);
  EXPECT_EQ(s.comm, "miniqmc");
  EXPECT_EQ(s.state, 'R');
  EXPECT_EQ(s.minorFaults, 881204u);
  EXPECT_EQ(s.majorFaults, 12u);
  EXPECT_EQ(s.utimeJiffies, 6394u);
  EXPECT_EQ(s.stimeJiffies, 1248u);
  EXPECT_EQ(s.numThreads, 9);
  EXPECT_EQ(s.processor, 3);
}

TEST(ParseTaskStat, CommWithSpacesAndParens) {
  // The kernel documents that comm may contain ') ' — anchor on the LAST
  // close paren.
  const std::string text =
      "7 (tricky (name) x) S 1 1 1 0 1 0 10 0 2 0 100 50 0 0 20 0 3 0 0";
  const TaskStat s = parseTaskStat(text);
  EXPECT_EQ(s.tid, 7);
  EXPECT_EQ(s.comm, "tricky (name) x");
  EXPECT_EQ(s.state, 'S');
  EXPECT_EQ(s.utimeJiffies, 100u);
  EXPECT_EQ(s.stimeJiffies, 50u);
}

TEST(ParseTaskStat, MissingProcessorFieldYieldsMinusOne) {
  const std::string text =
      "5 (x) S 1 1 1 0 1 0 10 0 2 0 100 50 0 0 20 0 3 0 0";
  EXPECT_EQ(parseTaskStat(text).processor, -1);
}

TEST(ParseTaskStat, MalformedThrows) {
  EXPECT_THROW(parseTaskStat("no parens at all"), ParseError);
  EXPECT_THROW(parseTaskStat("1 (x) R 2 3"), ParseError);  // too few fields
  EXPECT_THROW(parseTaskStat("x (y) R 1 1 1 0 1 0 1 0 1 0 1 1 0 0 1 0 1 0 0"),
               ParseError);  // bad tid
}

TEST(ParseMeminfo, RealWorldSample) {
  const MemInfo m = parseMeminfo(kMeminfoSample);
  EXPECT_EQ(m.totalKb, 527988388u);
  EXPECT_EQ(m.freeKb, 483178044u);
  EXPECT_EQ(m.availableKb, 508065400u);
}

TEST(ParseMeminfo, MissingTotalThrows) {
  EXPECT_THROW(parseMeminfo("MemFree: 5 kB\n"), ParseError);
  EXPECT_THROW(parseMeminfo(""), ParseError);
}

TEST(ParseLoadavg, RealWorldSample) {
  const LoadAvg l = parseLoadavg(kLoadavgSample);
  EXPECT_DOUBLE_EQ(l.load1, 0.52);
  EXPECT_DOUBLE_EQ(l.load5, 0.58);
  EXPECT_DOUBLE_EQ(l.load15, 0.59);
  EXPECT_EQ(l.runnable, 2);
  EXPECT_EQ(l.total, 1345);
}

TEST(ParseLoadavg, MalformedThrows) {
  EXPECT_THROW(parseLoadavg(""), ParseError);
  EXPECT_THROW(parseLoadavg("0.5 0.5"), ParseError);
  EXPECT_THROW(parseLoadavg("a b c 1/2 3"), ParseError);
  EXPECT_THROW(parseLoadavg("0.1 0.2 0.3 12 3"), ParseError);  // no slash
}

TEST(ParseStat, AggregateAndPerCpu) {
  const StatSnapshot s = parseStat(kStatSample);
  EXPECT_EQ(s.aggregate.user, 100u);
  EXPECT_EQ(s.aggregate.system, 50u);
  EXPECT_EQ(s.aggregate.idle, 800u);
  ASSERT_EQ(s.perCpu.size(), 2u);
  EXPECT_EQ(s.perCpu.at(0).user, 60u);
  EXPECT_EQ(s.perCpu.at(1).idle, 400u);
}

TEST(ParseStat, BusyAndTotalHelpers) {
  CpuTimes t;
  t.user = 10;
  t.nice = 1;
  t.system = 4;
  t.idle = 80;
  t.iowait = 5;
  EXPECT_EQ(t.busy(), 15u);
  EXPECT_EQ(t.total(), 100u);
}

TEST(ParseStat, ShortFieldListTolerated) {
  // Very old kernels have fewer columns; the first five are mandatory.
  const StatSnapshot s = parseStat("cpu0 1 2 3 4\n");
  EXPECT_EQ(s.perCpu.at(0).idle, 4u);
}

TEST(ParseStat, NoCpuLinesThrows) {
  EXPECT_THROW(parseStat("intr 5\n"), ParseError);
  EXPECT_THROW(parseStat(""), ParseError);
}

TEST(ParseStat, ReusedSnapshotMatchesAFreshParse) {
  // HwtTracker parses every sample into one snapshot; a stale row must
  // never survive into, or break, a later parse.
  const auto cpus = [](const StatSnapshot& snap) {
    std::vector<int> out;
    for (const auto& [cpu, times] : snap.perCpu) {
      out.push_back(cpu);
    }
    return out;
  };
  StatSnapshot snap;
  // A stale row past CpuSet::kMaxCpus.
  parseStatInto("cpu  1 2 3 4\ncpu5000 1 2 3 4\n", snap);
  parseStatInto("cpu  1 2 3 4\ncpu0 1 2 3 4\n", snap);
  EXPECT_EQ(cpus(snap), std::vector<int>{0});
  parseStatInto("cpu  1 2 3 4\ncpu0 1 2 3 4\ncpu1 1 2 3 4\n", snap);
  // A text that itself names a CPU past kMaxCpus.
  parseStatInto("cpu  1 2 3 4\ncpu1 1 2 3 4\ncpu5000 1 2 3 4\n", snap);
  EXPECT_EQ(cpus(snap), (std::vector<int>{1, 5000}));
  // A CPU named twice: the last line wins, and the stale row still goes.
  parseStatInto("cpu0 1 2 3 4\ncpu1 1 2 3 4\n", snap);
  parseStatInto("cpu0 1 2 3 4\ncpu0 5 6 7 8\n", snap);
  EXPECT_EQ(cpus(snap), std::vector<int>{0});
  EXPECT_EQ(snap.perCpu.at(0).idle, 8U);
  // A label past INT_MAX is an error, not a wrapped key.
  EXPECT_THROW(parseStat("cpu3000000000 1 2 3 4\n"), ParseError);
  EXPECT_THROW(parseStatInto("cpu2147483648 1 2 3 4\n", snap), ParseError);
  EXPECT_EQ(cpus(parseStat("cpu2147483647 1 2 3 4\n")),
            std::vector<int>{2147483647});
}

TEST(ParseStat, MalformedCountsThrow) {
  EXPECT_THROW(parseStat("cpu0 1 x 3 4 5\n"), ParseError);
  EXPECT_THROW(parseStat("cpuX 1 2 3 4 5\n"), ParseError);
  EXPECT_THROW(parseStat("cpu0 1 2 3\n"), ParseError);
}

// --- Corrupt-body matrix --------------------------------------------------
// Every parser must reject truncated, empty, and garbage /proc bodies with
// ParseError — never UB, a crash, or a silently wrong record.  These are
// the body shapes FaultInjectingProcFs manufactures.

TEST(ParseCorruptBodies, TaskStatTable) {
  const struct {
    const char* name;
    const char* body;
  } kCases[] = {
      {"truncated mid-fields", "51334 (miniqmc) R 51300 51334 51300 34816"},
      {"truncated before comm close", "51334 (miniqm"},
      {"only tid", "51334"},
      {"garbage", "#corrupt 7f3a9b ###\n#corrupt 19 ###\n"},
      {"empty", ""},
      {"non-numeric utime",
       "1 (x) R 1 1 1 0 1 0 10 0 2 0 abc 50 0 0 20 0 3 0 0"},
      {"non-numeric minflt",
       "1 (x) R 1 1 1 0 1 0 xyz 0 2 0 100 50 0 0 20 0 3 0 0"},
  };
  for (const auto& c : kCases) {
    EXPECT_THROW(parseTaskStat(c.body), ParseError) << c.name;
  }
}

TEST(ParseCorruptBodies, StatusTable) {
  const struct {
    const char* name;
    const char* body;
  } kCases[] = {
      {"malformed Cpus_allowed mask", "Pid:\t1\nCpus_allowed:\tzz\n"},
      {"oversized Cpus_allowed word", "Pid:\t1\nCpus_allowed:\t123456789\n"},
      {"malformed Cpus_allowed_list", "Pid:\t1\nCpus_allowed_list:\t4-2\n"},
      {"empty State", "State:\t\n"},
      {"non-numeric ctx switches", "voluntary_ctxt_switches:\tmany\n"},
      {"truncated VmRSS value", "VmRSS:\t\n"},
  };
  for (const auto& c : kCases) {
    EXPECT_THROW(parseStatus(c.body), ParseError) << c.name;
  }
}

TEST(ParseCorruptBodies, MeminfoTable) {
  const struct {
    const char* name;
    const char* body;
  } kCases[] = {
      {"empty", ""},
      {"garbage", "#corrupt 42 ###\n"},
      {"non-numeric MemTotal", "MemTotal:\tlots kB\n"},
      {"truncated after key", "MemTotal:\n"},
      {"non-numeric MemFree", "MemTotal: 10 kB\nMemFree: ?? kB\n"},
  };
  for (const auto& c : kCases) {
    EXPECT_THROW(parseMeminfo(c.body), ParseError) << c.name;
  }
}

TEST(ParseCorruptBodies, StatAndLoadavgTable) {
  EXPECT_THROW(parseStat("cpu  1 2\n"), ParseError);       // truncated line
  EXPECT_THROW(parseStat("#corrupt ###\n"), ParseError);   // garbage
  EXPECT_THROW(parseLoadavg("0.1 0.2\n"), ParseError);     // truncated
  EXPECT_THROW(parseLoadavg("#corrupt ###\n"), ParseError); // garbage
}

// --- Mutation property ------------------------------------------------------
// Seeded mutations of the real-world samples, parsed by each `*Into`
// parser into one output reused across every input (as the monitor's
// trackers reuse theirs) and by the value-returning parser into a fresh
// one: both give the same record, or both throw ParseError.

std::size_t below(stats::SplitMix64& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.nextBelow(n));
}

/// One to four edits: bit flips, inserted bytes or tokens (mostly the
/// formats' own), deleted spans, truncation or a duplicated span.
std::string mutate(stats::SplitMix64& rng, std::string text) {
  static const std::string kAlphabet = " \t\n:()/-.0123456789cpuxkB";
  static const char* const kTokens[] = {
      "cpu",  "cpu0 ",       "cpu2047 ",    "cpu2048 ",
      "cpu5000 ", "cpu3000000000 ", "cpu-1 ", "\ncpu7 1 2 3 4\n",
      "4294967296", "18446744073709551616", "nan", "1e308",
      "Cpus_allowed_list:\t0-2047\n", "MemTotal: 1 kB\n", ")", "("};
  const std::size_t edits = 1 + below(rng, 4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = below(rng, text.size() + 1);
    switch (below(rng, 6)) {
      case 0:
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1 << below(rng, 8)));
        }
        break;
      case 1:
        text.insert(at, 1,
                    below(rng, 4) == 0
                        ? static_cast<char>(below(rng, 256))
                        : kAlphabet[below(rng, kAlphabet.size())]);
        break;
      case 2:
        text.insert(at, kTokens[below(rng, std::size(kTokens))]);
        break;
      case 3:
        text.erase(std::min(at, text.size()), 1 + below(rng, 12));
        break;
      case 4:
        text.resize(at);
        break;
      default: {
        const std::size_t from = below(rng, text.size() + 1);
        const std::size_t length = below(rng, text.size() - from + 1);
        text.insert(at, text.substr(from, length));
        break;
      }
    }
  }
  return text;
}

/// Doubles in hexfloat, so equal texts mean bit-equal values.
std::string show(double v) {
  std::ostringstream out;
  out << std::hexfloat << v;
  return out.str();
}

std::string show(const ProcStatus& s) {
  std::ostringstream out;
  out << s.pid << ' ' << s.tgid << ' ' << s.name << ' ' << s.state << ' '
      << s.cpusAllowed.toList() << ' ' << s.vmRssKb << ' ' << s.vmHwmKb << ' '
      << s.threads << ' ' << s.voluntaryCtxSwitches << ' '
      << s.nonvoluntaryCtxSwitches;
  return out.str();
}

std::string show(const TaskStat& s) {
  std::ostringstream out;
  out << s.tid << ' ' << s.comm << ' ' << s.state << ' ' << s.minorFaults
      << ' ' << s.majorFaults << ' ' << s.utimeJiffies << ' '
      << s.stimeJiffies << ' ' << s.numThreads << ' ' << s.processor;
  return out.str();
}

std::string show(const MemInfo& m) {
  return std::to_string(m.totalKb) + ' ' + std::to_string(m.freeKb) + ' ' +
         std::to_string(m.availableKb);
}

std::string show(const LoadAvg& l) {
  return show(l.load1) + ' ' + show(l.load5) + ' ' + show(l.load15) + ' ' +
         std::to_string(l.runnable) + ' ' + std::to_string(l.total);
}

std::string show(const CpuTimes& t) {
  std::ostringstream out;
  out << t.user << ' ' << t.nice << ' ' << t.system << ' ' << t.idle << ' '
      << t.iowait << ' ' << t.irq << ' ' << t.softirq << ' ' << t.steal;
  return out.str();
}

std::string show(const StatSnapshot& s) {
  std::string out = show(s.aggregate);
  for (const auto& [cpu, times] : s.perCpu) {
    out += " | " + std::to_string(cpu) + ": " + show(times);
  }
  return out;
}

/// The record `parse` leaves in `out`, or "ParseError".
template <typename Parse, typename Out>
std::string outcome(Parse parse, Out& out) {
  try {
    parse(out);
    return show(out);
  } catch (const ParseError&) {
    return "ParseError";
  }
}

TEST(ParseMutations, ReusedParsesMatchFreshParsesOrBothThrow) {
  ProcStatus status;
  TaskStat task;
  MemInfo mem;
  LoadAvg load;
  StatSnapshot stat;
  const std::string* const samples[] = {&kStatusSample, &kTaskStatSample,
                                        &kMeminfoSample, &kLoadavgSample,
                                        &kStatSample};
  stats::SplitMix64 rng(88);
  std::size_t parsed[5] = {};
  std::size_t refused[5] = {};
  for (int i = 0; i < 40000; ++i) {
    const std::size_t kind = below(rng, 5);
    const std::string text = mutate(rng, *samples[kind]);
    std::string reused;
    std::string fresh;
    switch (kind) {
      case 0: {
        reused = outcome([&](auto& o) { parseStatusInto(text, o); }, status);
        ProcStatus out;
        fresh = outcome([&](auto& o) { o = parseStatus(text); }, out);
        break;
      }
      case 1: {
        reused = outcome([&](auto& o) { parseTaskStatInto(text, o); }, task);
        TaskStat out;
        fresh = outcome([&](auto& o) { o = parseTaskStat(text); }, out);
        break;
      }
      case 2: {
        reused = outcome([&](auto& o) { parseMeminfoInto(text, o); }, mem);
        MemInfo out;
        fresh = outcome([&](auto& o) { o = parseMeminfo(text); }, out);
        break;
      }
      case 3: {
        reused = outcome([&](auto& o) { parseLoadavgInto(text, o); }, load);
        LoadAvg out;
        fresh = outcome([&](auto& o) { o = parseLoadavg(text); }, out);
        break;
      }
      default: {
        reused = outcome([&](auto& o) { parseStatInto(text, o); }, stat);
        StatSnapshot out;
        fresh = outcome([&](auto& o) { o = parseStat(text); }, out);
        break;
      }
    }
    ++(fresh == "ParseError" ? refused : parsed)[kind];
    ASSERT_EQ(reused, fresh) << "input " << i << ": '" << text << "'";
  }
  // Every parser both parsed and refused inputs: not vacuous.
  for (std::size_t kind = 0; kind < 5; ++kind) {
    EXPECT_GT(parsed[kind], 100U) << kind;
    EXPECT_GT(refused[kind], 100U) << kind;
  }
}

}  // namespace
}  // namespace zerosum::procfs
