// FaultInjectingProcFs: a ProcFs decorator that injects deterministic,
// seeded faults at chosen call sites.
//
// ZeroSum's first rule is "do no harm": the async monitor thread reads
// /proc every period for the life of the job, so it must survive every
// failure /proc can produce — a tid directory vanishing mid-scan, a stat
// read racing a thread exit, a truncated or garbled file body.  This
// decorator manufactures exactly those failures on a reproducible
// schedule, so the degradation machinery in core::MonitorSession can be
// exercised end-to-end in tests (and in live runs via ZS_FAULT_SPEC).
//
// A fault schedule is a list of rules.  Each rule names a call site, a
// fault kind, and a window of 1-based call indices at that site
// (common/faultspec.hpp):
//   taskstat:enoent@3       one-shot: only the 3rd readTaskStat call fails
//   meminfo:truncate@5..    sticky: every readMeminfo call from the 5th on
//   stat:garbage@2..4       windowed: calls 2, 3 and 4
// The same grammar is accepted from the ZS_FAULT_SPEC environment
// variable as a comma-separated list (see parseFaultSpec / ZS_FAULT_SEED).
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/faultspec.hpp"
#include "procfs/procfs.hpp"

namespace zerosum::procfs {

/// The observable read paths of a ProcFs provider.
enum class FaultSite {
  kListTasks,       // listTasks          "listtasks"
  kProcessStatus,   // readProcessStatus  "status"
  kTaskStat,        // readTaskStat       "taskstat"
  kTaskStatus,      // readTaskStatus     "taskstatus"
  kMeminfo,         // readMeminfo        "meminfo"
  kStat,            // readStat           "stat"
  kLoadavg,         // readLoadavg        "loadavg"
};

inline constexpr FaultSite kAllFaultSites[] = {
    FaultSite::kListTasks, FaultSite::kProcessStatus, FaultSite::kTaskStat,
    FaultSite::kTaskStatus, FaultSite::kMeminfo,      FaultSite::kStat,
    FaultSite::kLoadavg,
};

enum class FaultKind {
  kNotFound,  // "enoent": throw NotFoundError (pid/tid vanished)
  kTruncate,  // "truncate": return the first half of the real body
  kGarbage,   // "garbage": return deterministic junk derived from the seed
  kEmpty,     // "empty": return an empty body / task list
};

[[nodiscard]] std::string faultSiteName(FaultSite site);
[[nodiscard]] std::string faultKindName(FaultKind kind);

using FaultRule = faultspec::Rule<FaultSite, FaultKind>;

/// Parses a ZS_FAULT_SPEC-style string ("site:kind@N", "site:kind@N..M",
/// "site:kind@N.." joined by commas).  Site and kind names are
/// case-insensitive; "enoent" and "notfound" are synonyms.  Throws
/// ConfigError on any malformed element — a typo in a fault schedule must
/// not silently disable the schedule.
[[nodiscard]] std::vector<FaultRule> parseFaultSpec(const std::string& spec);

class FaultInjectingProcFs final : public ProcFs {
 public:
  /// Wraps `inner`; `seed` makes the garbage bodies reproducible.
  explicit FaultInjectingProcFs(std::unique_ptr<ProcFs> inner,
                                std::vector<FaultRule> rules = {},
                                std::uint64_t seed = 1);

  /// Calls observed at `site` so far (faulted or not).
  [[nodiscard]] std::uint64_t callCount(FaultSite site) const;
  /// Faults actually injected at `site` so far.
  [[nodiscard]] std::uint64_t injectedCount(FaultSite site) const;
  /// Faults injected across all sites.
  [[nodiscard]] std::uint64_t totalInjected() const;

  // --- ProcFs ------------------------------------------------------------
  [[nodiscard]] int selfPid() const override;
  [[nodiscard]] std::vector<int> listPids() const override;
  [[nodiscard]] std::vector<int> listTasks(int pid) const override;
  [[nodiscard]] std::string readProcessStatus(int pid) const override;
  [[nodiscard]] std::string readTaskStat(int pid, int tid) const override;
  [[nodiscard]] std::string readTaskStatus(int pid, int tid) const override;
  [[nodiscard]] std::string readMeminfo() const override;
  [[nodiscard]] std::string readStat() const override;
  [[nodiscard]] std::string readLoadavg() const override;

 private:
  /// Advances the site's call counter and returns the fault to apply to
  /// this call, if any.  Throws NotFoundError itself for kNotFound.
  [[nodiscard]] std::optional<FaultKind> nextFault(FaultSite site) const;
  [[nodiscard]] std::string corrupt(FaultKind kind, FaultSite site,
                                    std::string body,
                                    std::uint64_t call) const;
  [[nodiscard]] std::string garbageBody(FaultSite site,
                                        std::uint64_t call) const;

  std::unique_ptr<ProcFs> inner_;
  std::vector<FaultRule> rules_;
  std::uint64_t seed_;
  // ProcFs reads are const; the schedule bookkeeping is observer state.
  mutable std::uint64_t calls_[std::size(kAllFaultSites)] = {};
  mutable std::uint64_t injected_[std::size(kAllFaultSites)] = {};
};

/// Wraps `inner` with faults from ZS_FAULT_SPEC / ZS_FAULT_SEED; returns
/// `inner` unchanged when ZS_FAULT_SPEC is unset or empty.  Throws
/// ConfigError on a malformed spec.
[[nodiscard]] std::unique_ptr<ProcFs> wrapFaultsFromEnv(
    std::unique_ptr<ProcFs> inner);

}  // namespace zerosum::procfs
