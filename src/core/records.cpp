#include "core/records.hpp"

#include "common/error.hpp"

namespace zerosum::core {

namespace {
const CpuSet kEmptySet{};
}

double LwpRecord::avgUtimePerPeriod() const {
  if (samples.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& s : samples) {
    total += static_cast<double>(s.utimeDelta);
  }
  return total / static_cast<double>(samples.size());
}

double LwpRecord::avgStimePerPeriod() const {
  if (samples.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& s : samples) {
    total += static_cast<double>(s.stimeDelta);
  }
  return total / static_cast<double>(samples.size());
}

std::uint64_t LwpRecord::totalVoluntaryCtx() const {
  return samples.empty() ? 0 : samples.back().voluntaryCtx;
}

std::uint64_t LwpRecord::totalNonvoluntaryCtx() const {
  return samples.empty() ? 0 : samples.back().nonvoluntaryCtx;
}

std::uint64_t LwpRecord::totalUtime() const {
  return samples.empty() ? 0 : samples.back().utime;
}

std::uint64_t LwpRecord::totalStime() const {
  return samples.empty() ? 0 : samples.back().stime;
}

std::uint64_t LwpRecord::observedMigrations() const {
  std::uint64_t migrations = 0;
  int previous = -1;
  for (const auto& s : samples) {
    if (previous >= 0 && s.processor >= 0 && s.processor != previous) {
      ++migrations;
    }
    if (s.processor >= 0) {
      previous = s.processor;
    }
  }
  return migrations;
}

void LwpRecord::addSample(const LwpSample& sample, const CpuSet& affinity) {
  if (!(affinity == lastAffinity())) {
    affinityChanges.push_back({samples.size(), affinity});
  }
  samples.push_back(sample);
}

const CpuSet& LwpRecord::lastAffinity() const {
  return affinityChanges.empty() ? kEmptySet : affinityChanges.back().cpus;
}

bool LwpRecord::affinityChanged() const {
  // Entries start at strictly increasing samples, so one starting after
  // sample 0 exists exactly when the last one does; an entry at sample 0
  // only records the first affinity.
  return !affinityChanges.empty() && affinityChanges.back().firstSample > 0;
}

namespace {

double averageOf(const std::vector<HwtSample>& samples,
                 double HwtSample::* field) {
  if (samples.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& s : samples) {
    total += s.*field;
  }
  return total / static_cast<double>(samples.size());
}

}  // namespace

double HwtRecord::avgUserPct() const {
  return averageOf(samples, &HwtSample::userPct);
}

double HwtRecord::avgSystemPct() const {
  return averageOf(samples, &HwtSample::systemPct);
}

double HwtRecord::avgIdlePct() const {
  return averageOf(samples, &HwtSample::idlePct);
}

}  // namespace zerosum::core
