#include "procfs/faultfs.hpp"

#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace zerosum::procfs {

namespace {

std::optional<FaultSite> siteFromName(const std::string& name) {
  for (const FaultSite site : kAllFaultSites) {
    if (name == faultSiteName(site)) {
      return site;
    }
  }
  return std::nullopt;
}

std::optional<FaultKind> kindFromName(const std::string& name) {
  if (name == "enoent" || name == "notfound") {
    return FaultKind::kNotFound;
  }
  if (name == "truncate") {
    return FaultKind::kTruncate;
  }
  if (name == "garbage") {
    return FaultKind::kGarbage;
  }
  if (name == "empty") {
    return FaultKind::kEmpty;
  }
  return std::nullopt;
}

std::size_t siteIndex(FaultSite site) {
  return static_cast<std::size_t>(site);
}

}  // namespace

std::string faultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kListTasks:
      return "listtasks";
    case FaultSite::kProcessStatus:
      return "status";
    case FaultSite::kTaskStat:
      return "taskstat";
    case FaultSite::kTaskStatus:
      return "taskstatus";
    case FaultSite::kMeminfo:
      return "meminfo";
    case FaultSite::kStat:
      return "stat";
    case FaultSite::kLoadavg:
      return "loadavg";
  }
  return "unknown";
}

std::string faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNotFound:
      return "enoent";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kGarbage:
      return "garbage";
    case FaultKind::kEmpty:
      return "empty";
  }
  return "unknown";
}

std::vector<FaultRule> parseFaultSpec(const std::string& spec) {
  return faultspec::parse<FaultSite, FaultKind>(spec, "fault", siteFromName,
                                                kindFromName);
}

FaultInjectingProcFs::FaultInjectingProcFs(std::unique_ptr<ProcFs> inner,
                                           std::vector<FaultRule> rules,
                                           std::uint64_t seed)
    : inner_(std::move(inner)), rules_(std::move(rules)), seed_(seed) {
  if (!inner_) {
    throw ConfigError("FaultInjectingProcFs requires an inner provider");
  }
}

std::uint64_t FaultInjectingProcFs::callCount(FaultSite site) const {
  return calls_[siteIndex(site)];
}

std::uint64_t FaultInjectingProcFs::injectedCount(FaultSite site) const {
  return injected_[siteIndex(site)];
}

std::uint64_t FaultInjectingProcFs::totalInjected() const {
  std::uint64_t total = 0;
  for (const FaultSite site : kAllFaultSites) {
    total += injected_[siteIndex(site)];
  }
  return total;
}

std::optional<FaultKind> FaultInjectingProcFs::nextFault(
    FaultSite site) const {
  const std::uint64_t call = ++calls_[siteIndex(site)];
  for (const FaultRule& rule : rules_) {
    if (rule.site == site && rule.covers(call)) {
      ++injected_[siteIndex(site)];
      if (rule.kind == FaultKind::kNotFound) {
        throw NotFoundError("injected fault: " + faultSiteName(site) +
                            " call " + std::to_string(call));
      }
      return rule.kind;
    }
  }
  return std::nullopt;
}

std::string FaultInjectingProcFs::garbageBody(FaultSite site,
                                              std::uint64_t call) const {
  // Deterministic junk: an xorshift stream keyed by (seed, site, call).
  std::uint64_t state =
      seed_ ^ (static_cast<std::uint64_t>(siteIndex(site)) * 0x9E3779B97F4A7C15ULL) ^
      (call * 0xBF58476D1CE4E5B9ULL);
  if (state == 0) {
    state = 0x2545F4914F6CDD1DULL;
  }
  std::ostringstream out;
  for (int line = 0; line < 3; ++line) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    out << "#corrupt " << std::hex << state << std::dec << " ###\n";
  }
  return out.str();
}

std::string FaultInjectingProcFs::corrupt(FaultKind kind, FaultSite site,
                                          std::string body,
                                          std::uint64_t call) const {
  switch (kind) {
    case FaultKind::kTruncate:
      return body.substr(0, body.size() / 2);
    case FaultKind::kGarbage:
      return garbageBody(site, call);
    case FaultKind::kEmpty:
      return {};
    case FaultKind::kNotFound:
      break;  // handled in nextFault
  }
  return body;
}

int FaultInjectingProcFs::selfPid() const { return inner_->selfPid(); }

std::vector<int> FaultInjectingProcFs::listPids() const {
  return inner_->listPids();
}

std::vector<int> FaultInjectingProcFs::listTasks(int pid) const {
  const auto fault = nextFault(FaultSite::kListTasks);
  if (!fault) {
    return inner_->listTasks(pid);
  }
  if (*fault == FaultKind::kTruncate) {
    auto tasks = inner_->listTasks(pid);
    tasks.resize(tasks.size() / 2);
    return tasks;
  }
  // Garbage and empty both degrade to "no tasks visible this period":
  // a task directory has no text body to corrupt.
  return {};
}

std::string FaultInjectingProcFs::readProcessStatus(int pid) const {
  const auto site = FaultSite::kProcessStatus;
  const auto fault = nextFault(site);
  std::string body = inner_->readProcessStatus(pid);
  return fault ? corrupt(*fault, site, std::move(body), callCount(site))
               : body;
}

std::string FaultInjectingProcFs::readTaskStat(int pid, int tid) const {
  const auto site = FaultSite::kTaskStat;
  const auto fault = nextFault(site);
  std::string body = inner_->readTaskStat(pid, tid);
  return fault ? corrupt(*fault, site, std::move(body), callCount(site))
               : body;
}

std::string FaultInjectingProcFs::readTaskStatus(int pid, int tid) const {
  const auto site = FaultSite::kTaskStatus;
  const auto fault = nextFault(site);
  std::string body = inner_->readTaskStatus(pid, tid);
  return fault ? corrupt(*fault, site, std::move(body), callCount(site))
               : body;
}

std::string FaultInjectingProcFs::readMeminfo() const {
  const auto site = FaultSite::kMeminfo;
  const auto fault = nextFault(site);
  std::string body = inner_->readMeminfo();
  return fault ? corrupt(*fault, site, std::move(body), callCount(site))
               : body;
}

std::string FaultInjectingProcFs::readStat() const {
  const auto site = FaultSite::kStat;
  const auto fault = nextFault(site);
  std::string body = inner_->readStat();
  return fault ? corrupt(*fault, site, std::move(body), callCount(site))
               : body;
}

std::string FaultInjectingProcFs::readLoadavg() const {
  const auto site = FaultSite::kLoadavg;
  const auto fault = nextFault(site);
  std::string body = inner_->readLoadavg();
  return fault ? corrupt(*fault, site, std::move(body), callCount(site))
               : body;
}

std::unique_ptr<ProcFs> wrapFaultsFromEnv(std::unique_ptr<ProcFs> inner) {
  const auto spec = env::get("ZS_FAULT_SPEC");
  if (!spec || strings::trim(*spec).empty()) {
    return inner;
  }
  auto rules = parseFaultSpec(*spec);
  const auto seed = static_cast<std::uint64_t>(env::getInt("ZS_FAULT_SEED", 1));
  return std::make_unique<FaultInjectingProcFs>(std::move(inner),
                                                std::move(rules), seed);
}

}  // namespace zerosum::procfs
