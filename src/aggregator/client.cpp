#include "aggregator/client.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"
#include "common/interning.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace zerosum::aggregator {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31U);
}

}  // namespace

const char* degradeLevelName(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kFull: return "full";
    case DegradeLevel::kCoarse: return "coarse";
    case DegradeLevel::kEssential: return "essential";
  }
  return "?";
}

Client::Client(std::unique_ptr<Transport> transport, Hello identity,
               ClientOptions options)
    : transport_(std::move(transport)),
      identity_(std::move(identity)),
      options_(options) {
  if (!transport_) {
    throw ConfigError("aggregator::Client requires a transport");
  }
  if (options_.maxQueueRecords == 0 || options_.batchRecords == 0) {
    throw ConfigError("aggregator::Client queue/batch bounds must be >= 1");
  }
  if (options_.coarsenWindowSeconds <= 0.0) {
    throw ConfigError("aggregator::Client coarsenWindowSeconds must be > 0");
  }
  auto& registry = trace::MetricsRegistry::instance();
  ctrEnqueued_ = &registry.counter("zs.agg.client.enqueued");
  ctrDropped_ = &registry.counter("zs.agg.client.dropped");
  ctrReconnects_ = &registry.counter("zs.agg.client.reconnects");
  ctrCoarsened_ = &registry.counter("zs.agg.client.coarsened");
  ctrDegradeTransitions_ =
      &registry.counter("zs.agg.client.degrade_transitions");
  latEnqueueToSend_ =
      &registry.latency("zs.agg.client.latency.enqueue_to_send_seconds");
  latRoundtrip_ = &registry.latency("zs.agg.client.latency.roundtrip_seconds");
  gaugeDegradeStage_ = &registry.gauge("zs.agg.client.degrade_stage");
  gaugeAckedPressure_ = &registry.gauge("zs.agg.client.acked_pressure");
  gaugeDegradeStage_->set(0.0);
  gaugeAckedPressure_->set(0.0);
  jitterState_ = options_.jitterSeed;
  if (jitterState_ == 0) {
    // Derive a per-rank seed so a fleet of default-configured clients
    // never shares a jitter stream.
    jitterState_ = std::hash<std::string>{}(identity_.job);
    jitterState_ ^= static_cast<std::uint64_t>(identity_.rank + 1) *
                    0x9E3779B97F4A7C15ULL;
    jitterState_ ^= static_cast<std::uint64_t>(identity_.pid) << 17U;
    jitterState_ |= 1ULL;  // splitmix64 is fine with 0, but keep it distinct
  }
}

Client::~Client() = default;

double Client::nextJitterUnit() {
  return static_cast<double>(splitmix64(jitterState_) >> 11U) *
         (1.0 / 9007199254740992.0);  // 2^53
}

bool Client::ensureConnected(double nowSeconds) {
  if (transport_->connected()) {
    return true;
  }
  if (nowSeconds < nextConnectAt_) {
    return false;  // backing off
  }
  ZS_TRACE_SCOPE("zs.agg.client.connect");
  if (!transport_->connect()) {
    ++counters_.connectFailures;
    // Exponential backoff: an absent daemon costs one failed connect per
    // backoff interval, not one per record.  The unjittered schedule
    // drives the doubling; the actual delay is smeared by +/- the jitter
    // fraction so ranks desynchronize after a daemon restart.
    currentBackoff_ =
        currentBackoff_ <= 0.0
            ? options_.reconnectBackoffSeconds
            : std::min(currentBackoff_ * 2.0,
                       options_.reconnectBackoffCapSeconds);
    double delay = currentBackoff_;
    if (options_.reconnectJitterFraction > 0.0) {
      delay *= 1.0 + options_.reconnectJitterFraction *
                         (2.0 * nextJitterUnit() - 1.0);
    }
    nextConnectAt_ = nowSeconds + delay;
    return false;
  }
  currentBackoff_ = 0.0;
  nextConnectAt_ = 0.0;
  if (everConnected_) {
    ++counters_.reconnects;
    ctrReconnects_->add();
  }
  everConnected_ = true;
  // The new byte stream starts fresh on both sides, name tables too.
  ackReader_ = FrameReader{};
  names_.clear();
  inflight_.clear();
  // Re-announce identity on every new connection: the daemon binds the
  // connection to a source via the Hello.
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.hello = identity_;
  if (!transport_->send(encodeFrame(hello))) {
    ++counters_.sendFailures;
    transport_->close();
    return false;
  }
  lastSendAt_ = nowSeconds;
  return true;
}

void Client::popFront(std::size_t n) {
  head_ += n;
  if (head_ >= queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ >= queue_.size() - head_) {
    // The dead prefix outweighs the live tail: slide the tail down (a
    // move, no allocation) so the existing capacity is reused instead of
    // the vector growing without bound.
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void Client::dropOverflow() {
  if (queueSize() > options_.maxQueueRecords) {
    const std::size_t excess = queueSize() - options_.maxQueueRecords;
    counters_.recordsDropped += excess;
    ctrDropped_->add(excess);
    popFront(excess);
  }
}

void Client::pushQueued(const IdRecord& record, double nowSeconds) {
  queue_.push_back({record, nowSeconds});
}

void Client::processIncoming(double nowSeconds) {
  if (!transport_->connected()) {
    return;
  }
  recvScratch_.clear();
  if (transport_->receive(recvScratch_) && !recvScratch_.empty()) {
    ackReader_.feed(recvScratch_);
  }
  try {
    Frame frame;
    while (ackReader_.next(frame)) {
      if (frame.kind != FrameKind::kBatchAck) {
        continue;  // future daemon->client traffic; pressure is in acks
      }
      ++counters_.acksReceived;
      pressure_ = frame.pressure;
      pressureAt_ = nowSeconds;
      gaugeAckedPressure_->set(double(static_cast<std::uint8_t>(pressure_)));
      if (frame.batchSeq != 0) {
        // Acks are cumulative: everything up to the acked seq landed.
        std::size_t acked = 0;
        for (const Inflight& f : inflight_) {
          if (f.seq > frame.batchSeq) {
            break;
          }
          counters_.recordsAcked += f.records;
          const double roundtrip = nowSeconds - f.sentAt;
          lastRoundtripSeconds_ = roundtrip;
          latRoundtrip_->observe(roundtrip);
          ++acked;
        }
        inflight_.erase(inflight_.begin(),
                        inflight_.begin() + static_cast<std::ptrdiff_t>(acked));
      }
    }
  } catch (const ParseError&) {
    // A daemon speaking garbage is treated like a dead daemon: drop the
    // connection and let the reconnect path start a clean stream.
    transport_->close();
    ackReader_ = FrameReader{};
    inflight_.clear();
  }
}

void Client::setLevel(DegradeLevel next, double nowSeconds) {
  if (next == level_) {
    return;
  }
  // A level change invalidates the open coarsening window either way:
  // leaving kCoarse must not strand folded records, and entering it
  // starts a fresh window.
  closeCoarseWindow(nowSeconds);
  level_ = next;
  gaugeDegradeStage_->set(double(static_cast<std::uint8_t>(next)));
  ++counters_.degradeTransitions;
  ctrDegradeTransitions_->add();
  pumpsSinceTransition_ = 0;
  calmPumps_ = 0;
}

void Client::updateLadder(double nowSeconds) {
  ++pumpsSinceTransition_;
  const double occupancy =
      static_cast<double>(queueSize()) /
      static_cast<double>(options_.maxQueueRecords);
  PressureLevel pressure = pressure_;
  if (pressureAt_ < 0.0 ||
      nowSeconds - pressureAt_ > options_.pressureStaleSeconds) {
    // Stale pressure must not pin the ladder: a daemon that died while
    // overloaded should leave its clients free to climb back.
    pressure = PressureLevel::kOk;
  }

  // Escalation.  Local occupancy climbs the full ladder (with a dwell of
  // two pumps between steps so one burst doesn't jump straight to
  // kEssential); acked pressure alone forces at most kCoarse — remote
  // overload coarsens the signal but never sheds it.
  if (occupancy >= options_.escalateOccupancy &&
      level_ != DegradeLevel::kEssential && pumpsSinceTransition_ >= 2) {
    setLevel(static_cast<DegradeLevel>(static_cast<std::uint8_t>(level_) + 1),
             nowSeconds);
    return;
  }
  if (pressure >= PressureLevel::kElevated && level_ == DegradeLevel::kFull) {
    setLevel(DegradeLevel::kCoarse, nowSeconds);
    return;
  }

  // De-escalation: a run of calm pumps steps back one level at a time.
  if (occupancy < options_.clearOccupancy && pressure == PressureLevel::kOk) {
    ++calmPumps_;
    if (calmPumps_ >= options_.deescalateAfterPumps &&
        level_ != DegradeLevel::kFull) {
      setLevel(
          static_cast<DegradeLevel>(static_cast<std::uint8_t>(level_) - 1),
          nowSeconds);
    }
  } else {
    calmPumps_ = 0;
  }
}

void Client::coarsen(const IdRecord& record, double nowSeconds) {
  if (!coarseOpen_) {
    coarseOpen_ = true;
    coarseWindowStart_ = nowSeconds;
  }
  coarse_[record.name].merge(record.value);
  ++counters_.recordsCoarsened;
  ctrCoarsened_->add();
}

void Client::closeCoarseWindow(double nowSeconds) {
  if (!coarseOpen_) {
    return;
  }
  for (const auto& [id, rollup] : coarse_) {
    auto it = coarseIds_.find(id);
    if (it == coarseIds_.end()) {
      const std::string base(names::lookup(id));
      CoarseIds derived;
      derived.minId = names::intern(base + ".min");
      derived.maxId = names::intern(base + ".max");
      it = coarseIds_.emplace(id, derived).first;
    }
    // The window collapses to three records: the average under the
    // original name (dashboards keep working, just coarser) plus the
    // extremes under derived names.
    pushQueued({nowSeconds, id, rollup.avg()}, nowSeconds);
    pushQueued({nowSeconds, it->second.minId, rollup.min}, nowSeconds);
    pushQueued({nowSeconds, it->second.maxId, rollup.max}, nowSeconds);
    counters_.coarseRecordsEmitted += 3;
  }
  coarse_.clear();
  coarseOpen_ = false;
  dropOverflow();
}

void Client::enqueueIds(const std::vector<IdRecord>& records,
                        double nowSeconds) {
  ZS_TRACE_SCOPE("zs.agg.client.enqueue");
  counters_.recordsEnqueued += records.size();
  ctrEnqueued_->add(records.size());
  switch (level_) {
    case DegradeLevel::kFull:
      for (const auto& record : records) {
        pushQueued(record, nowSeconds);
      }
      break;
    case DegradeLevel::kCoarse:
      for (const auto& record : records) {
        coarsen(record, nowSeconds);
      }
      break;
    case DegradeLevel::kEssential:
      // Ladder exhausted: bulk records are shed.  These are the only
      // drops an overloaded-but-reachable daemon ever causes.
      counters_.recordsDropped += records.size();
      ctrDropped_->add(records.size());
      break;
  }
  dropOverflow();
  pump(nowSeconds);
}

void Client::maybeHeartbeat(double nowSeconds) {
  if (options_.heartbeatSeconds <= 0.0 || !transport_->connected()) {
    return;
  }
  if (nowSeconds - lastSendAt_ < options_.heartbeatSeconds) {
    return;
  }
  Frame frame;
  frame.kind = FrameKind::kHeartbeat;
  frame.timeSeconds = nowSeconds;
  if (transport_->send(encodeFrame(frame))) {
    ++counters_.heartbeatsSent;
    lastSendAt_ = nowSeconds;
  } else {
    ++counters_.sendFailures;
    transport_->close();
  }
}

void Client::flush(double nowSeconds, bool force) {
  while (queueSize() > 0) {
    const bool countDue = queueSize() >= options_.batchRecords;
    const bool ageDue =
        nowSeconds - queue_[head_].enqueuedAt >= options_.batchAgeSeconds;
    if (!force && !countDue && !ageDue) {
      return;
    }
    if (!ensureConnected(nowSeconds)) {
      if (force) {
        // Final flush with no daemon: the records are lost; count them.
        counters_.recordsDropped += queueSize();
        ctrDropped_->add(queueSize());
        queue_.clear();
        head_ = 0;
      }
      return;
    }
    Frame batch;
    batch.kind = FrameKind::kBatch;
    batch.timeSeconds = nowSeconds;
    batch.batchSeq = nextBatchSeq_;
    // Latency attribution: the batch carries when its oldest record
    // was queued and when the frame was encoded (both client clock), plus
    // the last completed round-trip so the daemon can expose all four
    // stages without a reverse channel.
    batch.enqueueSeconds = queue_[head_].enqueuedAt;
    batch.encodeSeconds = nowSeconds;
    batch.prevRoundtripSeconds = lastRoundtripSeconds_;
    const std::size_t n = std::min(queueSize(), options_.batchRecords);
    batch.records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.records.push_back(queue_[head_ + i].record);
    }
    // The wire edge: a name's text goes out only in the first frame of
    // the connection that uses it; the rest carry its reference.
    if (!transport_->send(encodeFrame(batch, names_))) {
      // Keep the batch queued for the next connection: the queue bound
      // (dropOverflow) caps memory against a daemon that never comes
      // back, so retaining these records costs nothing unbounded — and a
      // daemon restart then loses no records the client still holds.
      ++counters_.sendFailures;
      transport_->close();
      currentBackoff_ = currentBackoff_ <= 0.0
                            ? options_.reconnectBackoffSeconds
                            : currentBackoff_;
      nextConnectAt_ = nowSeconds + currentBackoff_;
      return;
    }
    ++nextBatchSeq_;
    lastSendAt_ = nowSeconds;
    latEnqueueToSend_->observe(nowSeconds - batch.enqueueSeconds);
    popFront(n);
    ++counters_.batchesSent;
    counters_.recordsSent += n;
    inflight_.push_back(
        {batch.batchSeq, static_cast<std::uint64_t>(n), nowSeconds});
    if (inflight_.size() > options_.maxInflightAcks) {
      // The bookkeeping is bounded; the oldest entries simply stop being
      // attributable when the daemon is this far behind on acks.
      inflight_.erase(inflight_.begin());
    }
  }
}

void Client::pump(double nowSeconds) {
  ZS_TRACE_SCOPE("zs.agg.client.pump");
  processIncoming(nowSeconds);
  updateLadder(nowSeconds);
  if (coarseOpen_ &&
      nowSeconds - coarseWindowStart_ >= options_.coarsenWindowSeconds) {
    closeCoarseWindow(nowSeconds);
  }
  maybeHeartbeat(nowSeconds);
  flush(nowSeconds, /*force=*/false);
}

void Client::sendHealth(const HealthUpdate& health, double nowSeconds) {
  if (!ensureConnected(nowSeconds)) {
    return;
  }
  Frame frame;
  frame.kind = FrameKind::kHealth;
  frame.health = health;
  if (!transport_->send(encodeFrame(frame))) {
    ++counters_.sendFailures;
    transport_->close();
    return;
  }
  lastSendAt_ = nowSeconds;
}

void Client::goodbye(double nowSeconds) {
  closeCoarseWindow(nowSeconds);
  flush(nowSeconds, /*force=*/true);
  if (!transport_->connected()) {
    return;
  }
  Frame frame;
  frame.kind = FrameKind::kGoodbye;
  frame.timeSeconds = nowSeconds;
  if (!transport_->send(encodeFrame(frame))) {
    ++counters_.sendFailures;
  }
  transport_->close();
}

}  // namespace zerosum::aggregator
