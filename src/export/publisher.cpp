#include "export/publisher.hpp"

#include "common/error.hpp"
#include "export/perfstubs.hpp"
#include "gpu/metrics.hpp"
#include "trace/trace.hpp"

namespace zerosum::exporter {

namespace {

/// True when the sample was taken in the current period (records carry
/// the timestamp the tracker stamped them with).
bool isCurrent(double sampleTime, double now) {
  return sampleTime >= now - 1e-9;
}

}  // namespace

SessionPublisher::SessionPublisher(MetricStream* stream, Options options)
    : stream_(stream), options_(options) {
  if (stream_ == nullptr) {
    throw ConfigError("SessionPublisher requires a MetricStream");
  }
}

void SessionPublisher::attachAggregator(
    std::unique_ptr<aggregator::Client> client) {
  if (client == nullptr) {
    throw ConfigError("attachAggregator requires a client");
  }
  aggregator_ = std::move(client);
}

std::unique_ptr<aggregator::Client> SessionPublisher::closeAggregator(
    double timeSeconds) {
  if (aggregator_) {
    aggregator_->goodbye(timeSeconds);
  }
  return std::move(aggregator_);
}

const SessionPublisher::LwpIds& SessionPublisher::lwpIdsFor(int tid) {
  const auto [it, inserted] = lwpIds_.try_emplace(tid);
  if (inserted) {
    const std::string prefix = "lwp." + std::to_string(tid) + ".";
    it->second.utime = names::intern(prefix + "utime_delta");
    it->second.stime = names::intern(prefix + "stime_delta");
    it->second.vctx = names::intern(prefix + "vctx");
    it->second.nvctx = names::intern(prefix + "nvctx");
    it->second.processor = names::intern(prefix + "processor");
  }
  return it->second;
}

const SessionPublisher::HwtIds& SessionPublisher::hwtIdsFor(
    std::size_t cpu) {
  const auto [it, inserted] = hwtIds_.try_emplace(cpu);
  if (inserted) {
    const std::string prefix = "hwt." + std::to_string(cpu) + ".";
    it->second.user = names::intern(prefix + "user_pct");
    it->second.system = names::intern(prefix + "system_pct");
    it->second.idle = names::intern(prefix + "idle_pct");
  }
  return it->second;
}

names::Id SessionPublisher::gpuIdFor(int visibleIndex, int metric) {
  const auto [it, inserted] =
      gpuIds_.try_emplace({visibleIndex, metric}, names::kInvalidId);
  if (inserted) {
    it->second = names::intern(
        "gpu." + std::to_string(visibleIndex) + "." +
        gpu::metricLabel(static_cast<gpu::Metric>(metric)));
  }
  return it->second;
}

const Batch& SessionPublisher::makeBatch(const core::MonitorSession& session,
                                         double timeSeconds) {
  Batch& batch = batchScratch_;
  batch.clear();
  const std::int32_t rank = session.identity().rank;
  if (!sourceCached_ || sourceRank_ != rank) {
    sourceId_ = names::intern("rank." + std::to_string(rank));
    sourceRank_ = rank;
    sourceCached_ = true;
  }
  auto add = [&](names::Id name, double value) {
    batch.push_back(Record{timeSeconds, sourceId_, name, value});
  };

  if (options_.lwp) {
    for (const auto& [tid, record] : session.lwps().records()) {
      if (!record.alive || record.samples.empty() ||
          !isCurrent(record.samples.back().timeSeconds, timeSeconds)) {
        continue;
      }
      const auto& s = record.samples.back();
      const LwpIds& ids = lwpIdsFor(tid);
      add(ids.utime, static_cast<double>(s.utimeDelta));
      add(ids.stime, static_cast<double>(s.stimeDelta));
      add(ids.vctx, static_cast<double>(s.voluntaryCtx));
      add(ids.nvctx, static_cast<double>(s.nonvoluntaryCtx));
      add(ids.processor, static_cast<double>(s.processor));
    }
  }
  if (options_.hwt) {
    for (const auto& [cpu, record] : session.hwts().records()) {
      if (record.samples.empty() ||
          !isCurrent(record.samples.back().timeSeconds, timeSeconds)) {
        continue;
      }
      const auto& s = record.samples.back();
      const HwtIds& ids = hwtIdsFor(cpu);
      add(ids.user, s.userPct);
      add(ids.system, s.systemPct);
      add(ids.idle, s.idlePct);
    }
  }
  if (options_.memory && !session.memory().samples().empty()) {
    const auto& s = session.memory().samples().back();
    if (isCurrent(s.timeSeconds, timeSeconds)) {
      if (memAvailableId_ == names::kInvalidId) {
        memAvailableId_ = names::intern("mem.node_available_kb");
        memRssId_ = names::intern("mem.process_rss_kb");
      }
      add(memAvailableId_, static_cast<double>(s.memAvailableKb));
      add(memRssId_, static_cast<double>(s.processRssKb));
    }
  }
  if (options_.gpu) {
    for (const auto& record : session.gpus().records()) {
      if (record.samples.empty() ||
          !isCurrent(record.samples.back().first, timeSeconds)) {
        continue;
      }
      for (const auto& [metric, value] : record.samples.back().second) {
        add(gpuIdFor(record.visibleIndex, static_cast<int>(metric)), value);
      }
    }
  }
  return batch;
}

void SessionPublisher::publish(const core::MonitorSession& session,
                               double timeSeconds) {
  ZS_TRACE_SCOPE("zs.export.publish");
  const Batch& batch = makeBatch(session, timeSeconds);
  stream_->publish(batch);

  if (options_.perfstubs && ToolApi::instance().active()) {
    for (const auto& record : batch) {
      // The ToolApi contract takes strings; nameScratch_ keeps its
      // capacity across records and periods.
      nameScratch_.assign(record.nameView());
      ToolApi::instance().sampleCounter(nameScratch_, record.value);
    }
  }

  if (aggregator_) {
    ZS_TRACE_SCOPE("zs.export.aggregate");
    // The Hello carried the source identity; the queued records are just
    // (time, interned-name-id, value) — a name's text goes on the wire
    // only in the first frame of a connection that uses it.
    wireScratch_.clear();
    wireScratch_.reserve(batch.size());
    for (const auto& record : batch) {
      wireScratch_.push_back({record.timeSeconds, record.name, record.value});
    }
    if (wireScratch_.empty()) {
      aggregator_->pump(timeSeconds);  // heartbeat path: keep flushing
    } else {
      aggregator_->enqueueIds(wireScratch_, timeSeconds);
    }
    // Per-sample counters come from the health series (pushed by
    // sampleOnce before this callback runs) — session.health() builds an
    // allocating per-subsystem report and stays off the hot path.
    aggregator::HealthUpdate update;
    if (!session.healthSeries().empty()) {
      const core::HealthSample& hs = session.healthSeries().back();
      update.samplesTaken = hs.samplesTaken;
      update.samplesDegraded = hs.samplesDegraded;
      update.samplesDropped = hs.samplesDropped;
      update.loopOverruns = hs.loopOverruns;
      update.quarantined =
          static_cast<std::uint32_t>(hs.subsystemsQuarantined);
    }
    aggregator_->sendHealth(update, timeSeconds);
  }
  ++periods_;
}

}  // namespace zerosum::exporter
