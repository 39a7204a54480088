#include "procfs/parse.hpp"

#include <bitset>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace zerosum::procfs {

namespace {

std::uint64_t requireU64(std::string_view raw, const char* what) {
  const auto v = strings::toU64(raw);
  if (!v) {
    throw ParseError(std::string(what) + ": '" + std::string(raw) + "'");
  }
  return *v;
}

/// "1234 kB" -> 1234.
std::uint64_t parseKb(std::string_view value, const char* what) {
  strings::TokenCursor cur(value);
  std::string_view first;
  if (!cur.next(first)) {
    throw ParseError(std::string(what) + ": empty value");
  }
  return requireU64(first, what);
}

}  // namespace

void parseStatusInto(std::string_view text, ProcStatus& out) {
  out.pid = 0;
  out.tgid = 0;
  out.name.clear();
  out.state = '?';
  out.cpusAllowed = CpuSet{};
  out.vmRssKb = 0;
  out.vmHwmKb = 0;
  out.threads = 0;
  out.voluntaryCtxSwitches = 0;
  out.nonvoluntaryCtxSwitches = 0;

  bool sawList = false;
  std::string_view hexMask;
  std::string_view rest = text;
  std::string_view line;
  while (strings::nextLine(rest, line)) {
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) {
      continue;
    }
    const std::string_view key = strings::trimView(line.substr(0, colon));
    const std::string_view value = strings::trimView(line.substr(colon + 1));
    if (key == "Name") {
      out.name.assign(value);
    } else if (key == "State") {
      if (value.empty()) {
        throw ParseError("State: empty");
      }
      out.state = value[0];
    } else if (key == "Tgid") {
      out.tgid = static_cast<int>(requireU64(value, "Tgid"));
    } else if (key == "Pid") {
      out.pid = static_cast<int>(requireU64(value, "Pid"));
    } else if (key == "VmRSS") {
      out.vmRssKb = parseKb(value, "VmRSS");
    } else if (key == "VmHWM") {
      out.vmHwmKb = parseKb(value, "VmHWM");
    } else if (key == "Threads") {
      out.threads = static_cast<int>(requireU64(value, "Threads"));
    } else if (key == "Cpus_allowed_list") {
      out.cpusAllowed = CpuSet::fromList(value);
      sawList = true;
    } else if (key == "Cpus_allowed") {
      hexMask = value;
    } else if (key == "voluntary_ctxt_switches") {
      out.voluntaryCtxSwitches = requireU64(value, "voluntary_ctxt_switches");
    } else if (key == "nonvoluntary_ctxt_switches") {
      out.nonvoluntaryCtxSwitches =
          requireU64(value, "nonvoluntary_ctxt_switches");
    }
  }
  // Older kernels only expose the hex mask; the list takes precedence.
  if (!sawList && !hexMask.empty()) {
    out.cpusAllowed = CpuSet::fromHexMask(hexMask);
  }
}

ProcStatus parseStatus(const std::string& text) {
  ProcStatus out;
  parseStatusInto(text, out);
  return out;
}

void parseTaskStatInto(std::string_view text, TaskStat& out) {
  const auto open = text.find('(');
  const auto close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    throw ParseError("task stat: missing comm parentheses");
  }
  out.tid = static_cast<int>(
      requireU64(strings::trimView(text.substr(0, open)), "stat tid"));
  out.comm.assign(text.substr(open + 1, close - open - 1));
  out.state = '?';
  out.minorFaults = 0;
  out.majorFaults = 0;
  out.utimeJiffies = 0;
  out.stimeJiffies = 0;
  out.numThreads = 0;
  out.processor = -1;

  // Fields after the comm, 1-indexed from field 3 ("state").
  // state ppid pgrp session tty_nr tpgid flags minflt cminflt majflt
  //  (0)   (1)  (2)   (3)    (4)    (5)   (6)   (7)    (8)     (9)
  // cmajflt utime stime cutime cstime priority nice num_threads ...
  //  (10)    (11)  (12)   (13)   (14)    (15)  (16)    (17)
  // processor is stat field 39, i.e. rest index 36.
  strings::TokenCursor cur(text.substr(close + 1));
  std::string_view tok;
  std::size_t idx = 0;
  for (; cur.next(tok); ++idx) {
    switch (idx) {
      case 0:
        out.state = tok[0];
        break;
      case 7:
        out.minorFaults = requireU64(tok, "minflt");
        break;
      case 9:
        out.majorFaults = requireU64(tok, "majflt");
        break;
      case 11:
        out.utimeJiffies = requireU64(tok, "utime");
        break;
      case 12:
        out.stimeJiffies = requireU64(tok, "stime");
        break;
      case 17:
        out.numThreads = static_cast<long>(requireU64(tok, "num_threads"));
        break;
      case 36:
        out.processor = static_cast<int>(requireU64(tok, "processor"));
        break;
      default:
        break;
    }
  }
  if (idx < 18) {
    throw ParseError("task stat: too few fields (" + std::to_string(idx) +
                     ")");
  }
}

TaskStat parseTaskStat(const std::string& text) {
  TaskStat out;
  parseTaskStatInto(text, out);
  return out;
}

void parseMeminfoInto(std::string_view text, MemInfo& out) {
  out = MemInfo{};
  std::string_view rest = text;
  std::string_view line;
  while (strings::nextLine(rest, line)) {
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) {
      continue;
    }
    const std::string_view key = strings::trimView(line.substr(0, colon));
    const std::string_view value = strings::trimView(line.substr(colon + 1));
    if (key == "MemTotal") {
      out.totalKb = parseKb(value, "MemTotal");
    } else if (key == "MemFree") {
      out.freeKb = parseKb(value, "MemFree");
    } else if (key == "MemAvailable") {
      out.availableKb = parseKb(value, "MemAvailable");
    }
  }
  if (out.totalKb == 0) {
    throw ParseError("meminfo: missing MemTotal");
  }
}

MemInfo parseMeminfo(const std::string& text) {
  MemInfo out;
  parseMeminfoInto(text, out);
  return out;
}

void parseLoadavgInto(std::string_view text, LoadAvg& out) {
  out = LoadAvg{};
  strings::TokenCursor cur(text);
  std::string_view fields[4];
  std::size_t n = 0;
  std::string_view tok;
  while (n < 4 && cur.next(tok)) {
    fields[n++] = tok;
  }
  if (n < 4) {
    throw ParseError("loadavg: too few fields in '" + std::string(text) +
                     "'");
  }
  const auto l1 = strings::toDouble(fields[0]);
  const auto l5 = strings::toDouble(fields[1]);
  const auto l15 = strings::toDouble(fields[2]);
  if (!l1 || !l5 || !l15) {
    throw ParseError("loadavg: bad load value in '" + std::string(text) +
                     "'");
  }
  out.load1 = *l1;
  out.load5 = *l5;
  out.load15 = *l15;
  const auto slash = fields[3].find('/');
  if (slash == std::string_view::npos) {
    throw ParseError("loadavg: bad task counts '" + std::string(fields[3]) +
                     "'");
  }
  const auto runnable = strings::toU64(fields[3].substr(0, slash));
  const auto total = strings::toU64(fields[3].substr(slash + 1));
  if (!runnable || !total) {
    throw ParseError("loadavg: bad task counts '" + std::string(fields[3]) +
                     "'");
  }
  out.runnable = static_cast<int>(*runnable);
  out.total = static_cast<int>(*total);
}

LoadAvg parseLoadavg(const std::string& text) {
  LoadAvg out;
  parseLoadavgInto(text, out);
  return out;
}

void parseStatInto(std::string_view text, StatSnapshot& out) {
  out.aggregate = CpuTimes{};
  bool sawAggregate = false;
  bool sawCpu = false;
  // Rows of a reused `out.perCpu` that this text does not name are erased
  // afterwards, so reuse matches a fresh parse while the steady state (an
  // unchanged topology) touches no map nodes.  `seen` marks the indexes
  // below kMaxCpus this text names; a row at or past it is known to be
  // named only when the map held no such row before, so a map that holds
  // one starts empty.
  if (!out.perCpu.empty() &&
      static_cast<std::size_t>(out.perCpu.rbegin()->first) >=
          CpuSet::kMaxCpus) {
    out.perCpu.clear();
  }
  std::bitset<CpuSet::kMaxCpus> seen;
  std::size_t seenCount = 0;  // distinct indexes marked in `seen`

  std::string_view rest = text;
  std::string_view line;
  while (strings::nextLine(rest, line)) {
    if (!strings::startsWith(line, "cpu")) {
      continue;
    }
    strings::TokenCursor cur(line);
    std::string_view fields[9];
    std::size_t n = 0;
    std::string_view tok;
    while (n < 9 && cur.next(tok)) {
      fields[n++] = tok;
    }
    if (n < 5) {
      throw ParseError("/proc/stat cpu line too short: '" +
                       std::string(line) + "'");
    }
    CpuTimes t;
    auto field = [&](std::size_t i) -> std::uint64_t {
      return i < n ? requireU64(fields[i], "cpu jiffies") : 0;
    };
    t.user = field(1);
    t.nice = field(2);
    t.system = field(3);
    t.idle = field(4);
    t.iowait = field(5);
    t.irq = field(6);
    t.softirq = field(7);
    t.steal = field(8);
    if (fields[0] == "cpu") {
      out.aggregate = t;
      sawAggregate = true;
    } else {
      const auto idx = strings::toU64(fields[0].substr(3));
      if (!idx || *idx > static_cast<std::uint64_t>(
                             std::numeric_limits<int>::max())) {
        throw ParseError("bad cpu label '" + std::string(fields[0]) + "'");
      }
      out.perCpu[static_cast<int>(*idx)] = t;
      sawCpu = true;
      if (*idx < seen.size() && !seen.test(*idx)) {
        seen.set(*idx);
        ++seenCount;
      }
    }
  }
  if (!sawAggregate && !sawCpu) {
    throw ParseError("/proc/stat: no cpu lines");
  }
  if (seenCount != out.perCpu.size()) {
    std::erase_if(out.perCpu, [&seen](const auto& row) {
      const auto cpu = static_cast<std::size_t>(row.first);
      return cpu < seen.size() && !seen.test(cpu);
    });
  }
}

StatSnapshot parseStat(const std::string& text) {
  StatSnapshot out;
  parseStatInto(text, out);
  return out;
}

}  // namespace zerosum::procfs
