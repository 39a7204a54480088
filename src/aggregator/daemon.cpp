#include "aggregator/daemon.hpp"

#include <algorithm>
#include <mutex>
#include <set>
#include <sstream>

#include "aggregator/catalog.hpp"
#include "aggregator/query.hpp"
#include "aggregator/writer.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "tsdb/engine.hpp"

namespace zerosum::aggregator {

namespace {

/// True for "hwt.<n>.user_pct", n a CPU number.
bool isHwtUserPct(std::string_view metric) {
  constexpr std::string_view kPrefix = "hwt.";
  constexpr std::string_view kSuffix = ".user_pct";
  if (metric.size() <= kPrefix.size() + kSuffix.size() ||
      !metric.starts_with(kPrefix) || !metric.ends_with(kSuffix)) {
    return false;
  }
  const std::string_view cpu = metric.substr(
      kPrefix.size(), metric.size() - kPrefix.size() - kSuffix.size());
  return std::ranges::all_of(cpu, [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

const char* sourceStateName(SourceState state) {
  switch (state) {
    case SourceState::kActive: return "active";
    case SourceState::kStale: return "STALE";
    case SourceState::kDeparted: return "departed";
  }
  return "?";
}

Aggregator::Aggregator(std::unique_ptr<TransportServer> server,
                       StoreOptions storeOptions, DaemonOptions options)
    : server_(std::move(server)), store_(storeOptions), options_(options) {
  if (!server_) {
    throw ConfigError("Aggregator requires a transport server");
  }
  if (options_.maxPendingBatches == 0) {
    throw ConfigError("Aggregator maxPendingBatches must be >= 1");
  }
  if (options_.elevatedQueueFraction <= 0.0 ||
      options_.overloadedQueueFraction < options_.elevatedQueueFraction) {
    throw ConfigError("Aggregator pressure thresholds must satisfy "
                      "0 < elevated <= overloaded");
  }
  auto& registry = trace::MetricsRegistry::instance();
  latEnqueueToSend_ =
      &registry.latency("zs.agg.daemon.latency.enqueue_to_send_seconds");
  latSendToIngest_ =
      &registry.latency("zs.agg.daemon.latency.send_to_ingest_seconds");
  latIngestToDurable_ =
      &registry.latency("zs.agg.daemon.latency.ingest_to_durable_seconds");
  latRoundtrip_ = &registry.latency("zs.agg.daemon.latency.roundtrip_seconds");
  gaugePressure_ = &registry.gauge("zs.agg.daemon.pressure");
  gaugeBacklog_ = &registry.gauge("zs.agg.daemon.ingest_backlog");
  ctrRecordsIngested_ = &registry.counter("zs.agg.daemon.records_ingested");
  ctrSourcesEvicted_ = &registry.counter("zs.agg.daemon.sources_evicted");
  ctrFaninFrames_ = &registry.counter("zs.aggd.fanin.forward_frames");
  ctrFaninWindows_ = &registry.counter("zs.aggd.fanin.forward_windows");
  ctrFaninConflicts_ = &registry.counter("zs.aggd.fanin.merge_conflicts");
  gaugeFaninMaxHops_ = &registry.gauge("zs.aggd.fanin.max_hops");
  gaugePressure_->set(0.0);
  gaugeBacklog_->set(0.0);
}

SourceInfo* Aggregator::sourceOf(std::string_view job, int rank) {
  const auto it = sources_.find({std::string(job), rank});
  return it == sources_.end() ? nullptr : &it->second;
}

SourceInfo recoveredSource(const tsdb::SourceRecord& record) {
  SourceInfo info;
  info.hello.job = record.job;
  info.hello.rank = record.rank;
  info.hello.worldSize = record.worldSize;
  info.hello.hostname = record.hostname;
  info.hello.pid = record.pid;
  info.state = SourceState::kStale;
  info.firstSeenSeconds = record.firstSeenSeconds;
  info.lastSeenSeconds = record.lastSeenSeconds;
  info.batches = record.batches;
  info.records = record.records;
  return info;
}

void Aggregator::attachEngine(tsdb::Engine* engine) {
  engine_ = engine;
  if (engine_ == nullptr) {
    return;
  }
  for (const tsdb::SourceRecord& record : engine_->sources()) {
    SourceInfo& info = sources_[{record.job, record.rank}];
    if (info.batches != 0 || info.lastSeenSeconds != 0.0) {
      continue;  // live connection already outranks the recovered entry
    }
    info = recoveredSource(record);
    int& expected = expectedRanks_[record.job];
    expected = std::max(expected, record.worldSize);
  }
}

void Aggregator::attachWriter(TsdbWriter* writer) {
  writer_ = writer;
  if (writer_ != nullptr) {
    attachEngine(writer_->engine());
  }
}

PressureLevel Aggregator::pressure() const {
  double occupancy =
      static_cast<double>(pendingDepth_.load(std::memory_order_relaxed)) /
      static_cast<double>(options_.maxPendingBatches);
  if (writer_ != nullptr) {
    occupancy = std::max(occupancy, writer_->occupancy());
  }
  if (occupancy >= options_.overloadedQueueFraction) {
    return PressureLevel::kOverloaded;
  }
  if (occupancy >= options_.elevatedQueueFraction) {
    return PressureLevel::kElevated;
  }
  return PressureLevel::kOk;
}

std::size_t Aggregator::ingestBacklog() const {
  return pendingDepth_.load(std::memory_order_relaxed) +
         (writer_ != nullptr ? writer_->pending() : 0);
}

void Aggregator::pushPending(PendingBatch&& batch) {
  pending_.push_back(std::move(batch));
  pendingDepth_.store(pending_.size(), std::memory_order_relaxed);
}

Aggregator::PendingBatch Aggregator::popPending() {
  PendingBatch batch = std::move(pending_.front());
  pending_.pop_front();
  pendingDepth_.store(pending_.size(), std::memory_order_relaxed);
  return batch;
}

void Aggregator::persistSource(std::string_view job, int rank,
                               const SourceInfo& info) {
  if (engine_ == nullptr) {
    return;
  }
  tsdb::SourceRecord record;
  record.job = job;
  record.rank = rank;
  record.worldSize = info.hello.worldSize;
  record.hostname = info.hello.hostname;
  record.pid = info.hello.pid;
  record.firstSeenSeconds = info.firstSeenSeconds;
  record.lastSeenSeconds = info.lastSeenSeconds;
  record.batches = info.batches;
  record.records = info.records;
  if (writer_ != nullptr && writer_->threaded()) {
    std::lock_guard<std::mutex> lock(writer_->engineMutex());
    engine_->noteSource(record);
    return;
  }
  engine_->noteSource(record);
}

void Aggregator::sendAck(std::uint64_t connection, std::uint64_t batchSeq) {
  Frame ack;
  ack.kind = FrameKind::kBatchAck;
  ack.batchSeq = batchSeq;
  ack.pressure = pressure();
  if (server_->send(connection, encodeFrame(ack))) {
    ++counters_.acksSent;
  }
}

void Aggregator::flushAcks(double nowSeconds) {
  const std::uint64_t durable =
      writer_ != nullptr ? writer_->writtenTicket() : 0;
  while (!pendingAcks_.empty()) {
    const PendingAck& ack = pendingAcks_.front();
    if (ack.ticket != 0 && ack.ticket > durable) {
      break;  // FIFO matches per-connection seq order; acks are cumulative
    }
    latIngestToDurable_->observe(std::max(0.0, nowSeconds - ack.ingestAt));
    sendAck(ack.connection, ack.batchSeq);
    pendingAcks_.pop_front();
  }
}

void Aggregator::handleFrame(std::uint64_t connection, ConnState& conn,
                             Frame& frame, double nowSeconds) {
  ++counters_.framesIngested;
  if (frame.kind == FrameKind::kQuery) {
    ++counters_.queriesServed;
    Frame response;
    response.kind = FrameKind::kResponse;
    response.text = query(frame.text);
    server_->send(connection, encodeFrame(response));
    return;
  }
  if (frame.kind == FrameKind::kForward) {
    // Self-describing (origin and per-source identities ride the frame),
    // so no Hello gate; bulk data like kBatch, so it goes through the
    // admission queue and the same pressure/ack loop.
    admitBatch(connection, conn, std::move(frame), nowSeconds);
    return;
  }
  if (frame.kind == FrameKind::kCatalogAnnounce) {
    handleCatalogAnnounce(connection, frame, nowSeconds);
    return;
  }
  if (frame.kind == FrameKind::kHello) {
    conn.helloSeen = true;
    conn.job = frame.hello.job;
    conn.jobId = names::intern(conn.job);
    conn.rank = frame.hello.rank;
    SourceInfo& info = sources_[{conn.job, conn.rank}];
    const bool fresh = info.lastSeenSeconds == 0.0 && info.batches == 0;
    info.hello = frame.hello;
    info.state = SourceState::kActive;
    if (fresh) {
      info.firstSeenSeconds = nowSeconds;
    }
    info.lastSeenSeconds = nowSeconds;
    int& expected = expectedRanks_[conn.job];
    expected = std::max(expected, frame.hello.worldSize);
    persistSource(conn.job, conn.rank, info);
    return;
  }
  if (!conn.helloSeen) {
    // Data frames before the Hello have no source to bind to.
    ++counters_.orphanFrames;
    return;
  }
  SourceInfo* info = sourceOf(conn.job, conn.rank);
  if (info == nullptr) {
    ++counters_.orphanFrames;
    return;
  }
  info->lastSeenSeconds = nowSeconds;
  if (info->state == SourceState::kStale) {
    info->state = SourceState::kActive;  // the rank came back
  }
  switch (frame.kind) {
    case FrameKind::kBatch:
      // Bulk data goes through admission; everything else on this
      // connection was already handled the moment it decoded.
      admitBatch(connection, conn, std::move(frame), nowSeconds);
      break;
    case FrameKind::kHealth:
      info->health = frame.health;
      break;
    case FrameKind::kHeartbeat:
      ++counters_.heartbeats;
      // Heartbeats are answered immediately with a seq-0 ack so idle (or
      // fully degraded) clients still see the pressure signal.
      sendAck(connection, 0);
      break;
    case FrameKind::kGoodbye:
      info->state = SourceState::kDeparted;
      persistSource(conn.job, conn.rank, *info);
      break;
    default:
      break;
  }
}

void Aggregator::admitBatch(std::uint64_t connection, ConnState& conn,
                            Frame&& frame, double nowSeconds) {
  if (pending_.size() >= options_.maxPendingBatches) {
    // Backstop: the queue never drops an admitted batch.  Process the
    // oldest inline (order preserved) to make room; pressure() is
    // already reading overloaded at this depth.
    ++counters_.admissionBackstops;
    PendingBatch oldest = popPending();
    processBatch(oldest, nowSeconds);
  }
  PendingBatch batch;
  batch.connection = connection;
  batch.job = conn.jobId;
  batch.rank = conn.rank;
  batch.admittedAt = nowSeconds;
  if (frame.kind == FrameKind::kBatch) {
    // Refine the connection's clock-offset estimate at decode time: the
    // minimum over batches of (daemon now - client encode stamp) bounds
    // the epoch delta from above by the fastest observed transit.
    const double offset = nowSeconds - frame.encodeSeconds;
    if (!conn.offsetKnown || offset < conn.minClockOffset) {
      conn.minClockOffset = offset;
      conn.offsetKnown = true;
    }
    batch.clockOffset = conn.minClockOffset;
  }
  batch.frame = std::move(frame);
  pushPending(std::move(batch));
}

void Aggregator::processBatch(PendingBatch& batch, double nowSeconds) {
  ZS_TRACE_SCOPE("zs.agg.daemon.ingest");
  if (batch.frame.kind == FrameKind::kForward) {
    processForward(batch, nowSeconds);
    return;
  }
  const Frame& frame = batch.frame;
  // Per-stage latency attribution (DESIGN.md §10).  The first stage is a
  // pure client-clock difference; the second maps the client encode
  // stamp into the daemon clock via the connection's min-offset
  // estimate; the third (the client's view of the previous full
  // round-trip) rides the batch so the daemon exposes all four stages.
  const double queued = frame.encodeSeconds - frame.enqueueSeconds;
  if (queued >= 0.0) latEnqueueToSend_->observe(queued);
  latSendToIngest_->observe(
      std::max(0.0, (nowSeconds - batch.clockOffset) - frame.encodeSeconds));
  if (frame.prevRoundtripSeconds >= 0.0) {
    latRoundtrip_->observe(frame.prevRoundtripSeconds);
  }
  ++counters_.batchesIngested;
  // Records arrive named by this daemon's ids (the connection's reader
  // resolved their references), so each finds its series ref by id.  A
  // name the interner refused (kInvalidId), the record's or the Hello's
  // job, keys nothing: the record is counted and dropped here, and never
  // reaches the store, the engine or the source registry (DESIGN.md §8).
  if (batch.job == names::kInvalidId) {
    counters_.unnamedDropped += frame.records.size();
    if (frame.batchSeq != 0) {
      pendingAcks_.push_back({batch.connection, frame.batchSeq, 0, nowSeconds});
    }
    return;
  }
  auto& seriesRefs = seriesRefs_[{batch.job, batch.rank}];
  std::size_t unnamed = 0;
  for (const IdRecord& record : frame.records) {
    if (record.name == names::kInvalidId) {
      ++unnamed;
      continue;
    }
    store_.ingest({batch.job, batch.rank, record.name}, seriesRefs[record.name],
                  record.timeSeconds, record.value);
  }
  const std::size_t ingested = frame.records.size() - unnamed;
  counters_.recordsIngested += ingested;
  counters_.unnamedDropped += unnamed;
  ctrRecordsIngested_->add(ingested);
  std::uint64_t ackTicket = 0;
  if (engine_ != nullptr) {
    // Durable before the batch is acknowledged: either the WAL append
    // happens right here, or the ack is parked until the TsdbWriter's
    // durable frontier passes the batch's ticket.  Either way anything
    // a client saw acked survives a crash.
    if (writer_ != nullptr) {
      const auto ticket = writer_->submit(batch.job, batch.rank,
                                          frame.records);
      if (ticket) {
        ackTicket = *ticket;
      } else {
        // Writer full: append inline rather than stall or drop.  The
        // records are durable immediately, so the ack needs no ticket.
        ++counters_.writerBypasses;
        std::lock_guard<std::mutex> lock(writer_->engineMutex());
        engine_->append(batch.job, batch.rank, frame.records);
      }
    } else {
      engine_->append(batch.job, batch.rank, frame.records);
    }
  }
  const std::string_view job = names::lookup(batch.job);
  SourceInfo* info = sourceOf(job, batch.rank);
  if (info != nullptr) {
    info->lastSeenSeconds = std::max(info->lastSeenSeconds, batch.admittedAt);
    ++info->batches;
    info->records += ingested;
    persistSource(job, batch.rank, *info);
  }
  if (frame.batchSeq != 0) {
    pendingAcks_.push_back(
        {batch.connection, frame.batchSeq, ackTicket, nowSeconds});
  }
}

void Aggregator::processForward(PendingBatch& batch, double nowSeconds) {
  ZS_TRACE_SCOPE("zs.agg.daemon.forward_ingest");
  const Frame& frame = batch.frame;
  ++counters_.forwardFrames;
  ctrFaninFrames_->add();
  // Source-registry propagation.  Ages ride the frame (epoch-safe across
  // daemons); lastSeen reconstructs on this daemon's clock.  A source we
  // also hear from directly (hops == 0 with data) outranks the forwarded
  // view of itself.
  for (const ForwardSource& src : frame.forwardSources) {
    if (src.state > static_cast<std::uint8_t>(SourceState::kDeparted)) {
      continue;  // decode validated this, but stay defensive
    }
    SourceInfo& info = sources_[{src.job, src.rank}];
    const bool fresh = info.lastSeenSeconds == 0.0 && info.batches == 0;
    if (!fresh && info.hops == 0) {
      continue;
    }
    info.hello.job = src.job;
    info.hello.rank = src.rank;
    info.hello.worldSize = src.worldSize;
    info.hello.hostname = src.hostname;
    info.state = static_cast<SourceState>(src.state);
    info.hops = frame.hopCount;
    const double seen = std::max(0.0, nowSeconds - src.lastSeenAgeSeconds);
    if (fresh || seen < info.firstSeenSeconds || info.firstSeenSeconds == 0.0) {
      info.firstSeenSeconds = seen;
    }
    info.lastSeenSeconds = std::max(info.lastSeenSeconds, seen);
    int& expected = expectedRanks_[src.job];
    expected = std::max(expected, src.worldSize);
  }
  if (frame.hopCount > maxHopsSeen_) {
    maxHopsSeen_ = frame.hopCount;
    gaugeFaninMaxHops_->set(static_cast<double>(maxHopsSeen_));
  }
  // Window application, one series block at a time: cumulative
  // snapshots replace when newer; a not-newer snapshot is a merge
  // conflict (retransmit after a resync, or a duplicate route during a
  // membership change) — counted, kept.
  const SeriesBlocks& series = frame.forwardSeries;
  std::uint64_t applied = 0;
  std::uint64_t unnamed = 0;
  for (const SeriesBlocks::Block& block : series.blocks()) {
    if (block.key.job == names::kInvalidId ||
        block.key.metric == names::kInvalidId) {
      unnamed += block.count;  // a name the interner refused
      continue;
    }
    applied += store_.ingestWindows(block.key, series.windows(block));
  }
  counters_.unnamedDropped += unnamed;
  const std::uint64_t conflicts = series.windowCount() - unnamed - applied;
  counters_.forwardWindows += applied;
  counters_.forwardConflicts += conflicts;
  ctrFaninWindows_->add(applied);
  if (conflicts > 0) {
    ctrFaninConflicts_->add(conflicts);
  }
  // Forwarded windows live in the rollup plane only (recovery is resync,
  // not WAL replay), so the ack needs no writer ticket: "acked" means
  // "applied upstream".
  if (frame.batchSeq != 0) {
    pendingAcks_.push_back({batch.connection, frame.batchSeq, 0, nowSeconds});
  }
}

void Aggregator::handleCatalogAnnounce(std::uint64_t connection,
                                       const Frame& frame,
                                       double nowSeconds) {
  if (catalog_ == nullptr) {
    // Not a catalog host; an announce here is a misdirected frame.
    ++counters_.orphanFrames;
    return;
  }
  ++counters_.catalogAnnounces;
  const AnnounceResult result =
      catalog_->announce(frame.catalogEntry, nowSeconds);
  Frame ack;
  ack.kind = FrameKind::kCatalogAck;
  ack.catalogEntry.generation = result.generation;
  ack.catalogTtlSeconds = result.accepted ? result.ttlSeconds : 0.0;
  server_->send(connection, encodeFrame(ack));
}

void Aggregator::poll(double nowSeconds) {
  ZS_TRACE_SCOPE("zs.agg.daemon.poll");
  // Liveness deadlines (staleness sweep, catalog expiry) only compare
  // against a non-decreasing clock: an owner whose wall clock steps
  // backwards (NTP) is clamped and counted instead of mass-flagging
  // every source stale later (or resurrecting expired state).
  if (nowSeconds < lastPollSeconds_) {
    ++counters_.clockRegressions;
    nowSeconds = lastPollSeconds_;
  }
  lastPollSeconds_ = nowSeconds;
  for (auto& delivery : server_->poll()) {
    auto& conn = connections_[delivery.connection];
    if (!delivery.bytes.empty()) {
      conn.reader.feed(delivery.bytes);
      try {
        Frame frame;
        while (conn.reader.next(frame)) {
          handleFrame(delivery.connection, conn, frame, nowSeconds);
        }
      } catch (const Error& e) {
        // Malformed bytes poison the whole connection (framing is lost);
        // count it and cut the source off rather than guessing.
        ++counters_.decodeErrors;
        log::warn() << "aggregator: dropping connection "
                    << delivery.connection << ": " << e.what();
        server_->disconnect(delivery.connection);
        connections_.erase(delivery.connection);
        continue;
      }
    }
    if (delivery.closed) {
      connections_.erase(delivery.connection);
    }
  }

  // Drain admitted batches within this poll's budget — and stop early
  // when the writer is full, so a slow disk converts into admission
  // depth (pressure) instead of inline stalls.
  std::size_t processed = 0;
  while (!pending_.empty()) {
    if (options_.maxBatchesPerPoll > 0 &&
        processed >= options_.maxBatchesPerPoll) {
      break;
    }
    if (writer_ != nullptr && !writer_->hasSpace()) {
      break;
    }
    PendingBatch batch = popPending();
    processBatch(batch, nowSeconds);
    ++processed;
  }
  counters_.batchesDeferred += pending_.size();
  if (writer_ != nullptr) {
    writer_->pump();  // sync mode; no-op when threaded
  }
  flushAcks(nowSeconds);
  gaugePressure_->set(double(static_cast<std::uint8_t>(pressure())));
  gaugeBacklog_->set(double(ingestBacklog()));

  // Staleness sweep: a silent source is flagged and its series evicted —
  // the store serves live dashboards, not archaeology.
  for (auto& [key, info] : sources_) {
    if (info.state != SourceState::kActive) {
      continue;
    }
    if (nowSeconds - info.lastSeenSeconds > store_.options().staleSeconds) {
      ZS_TRACE_INSTANT("zs.agg.daemon.evict_stale");
      info.state = SourceState::kStale;
      ++counters_.sourcesEvicted;
      ctrSourcesEvicted_->add();
      store_.evictSource(key.first, key.second);
    }
  }

  if (catalog_ != nullptr) {
    catalog_->expire(nowSeconds);
  }

  if (engine_ != nullptr && writer_ == nullptr) {
    engine_->maybeCompact();
  }
}

void Aggregator::drainBacklog(double nowSeconds) {
  while (!pending_.empty()) {
    if (writer_ != nullptr && !writer_->hasSpace()) {
      writer_->flush();
    }
    PendingBatch batch = popPending();
    processBatch(batch, nowSeconds);
  }
  if (writer_ != nullptr) {
    writer_->flush();
  }
  flushAcks(nowSeconds);
}

std::vector<SourceInfo> Aggregator::sources() const {
  std::vector<SourceInfo> out;
  out.reserve(sources_.size());
  for (const auto& [key, info] : sources_) {
    out.push_back(info);
  }
  return out;
}

std::map<int, std::size_t> Aggregator::sourcesByHop() const {
  std::map<int, std::size_t> out;
  for (const auto& [key, info] : sources_) {
    ++out[info.hops];
  }
  return out;
}

bool Aggregator::allDeparted() const {
  if (sources_.empty()) {
    return false;
  }
  return std::all_of(sources_.begin(), sources_.end(), [](const auto& kv) {
    return kv.second.state == SourceState::kDeparted;
  });
}

std::vector<int> Aggregator::missingRanks(const std::string& job) const {
  std::vector<int> missing;
  const auto it = expectedRanks_.find(job);
  if (it == expectedRanks_.end()) {
    return missing;
  }
  std::set<int> seen;
  for (const auto& [key, info] : sources_) {
    if (key.first == job) {
      seen.insert(key.second);
    }
  }
  for (int rank = 0; rank < it->second; ++rank) {
    if (seen.count(rank) == 0) {
      missing.push_back(rank);
    }
  }
  return missing;
}

std::string Aggregator::dashboard(double nowSeconds) const {
  std::ostringstream out;
  out << "Aggregator dashboard: " << sources_.size() << " source(s), "
      << store_.seriesCount() << " series, "
      << counters_.recordsIngested << " records ingested, t="
      << strings::fixed(nowSeconds, 1) << "s"
      << " pressure=" << pressureLevelName(pressure()) << "\n";
  const auto byHop = sourcesByHop();
  if (byHop.size() > 1 || (!byHop.empty() && byHop.begin()->first > 0)) {
    out << "fan-in:";
    bool firstHop = true;
    for (const auto& [hops, count] : byHop) {
      out << (firstHop ? " " : ", ") << count;
      if (hops == 0) {
        out << " direct";
      } else {
        out << " via " << hops << " hop" << (hops == 1 ? "" : "s");
      }
      firstHop = false;
    }
    out << '\n';
  }
  // Per-stage batch latency attribution (DESIGN.md §10), mean/p99 in ms.
  const std::pair<const char*, trace::LatencyHistogram*> stages[] = {
      {"enqueue->send", latEnqueueToSend_},
      {"send->ingest", latSendToIngest_},
      {"ingest->durable", latIngestToDurable_},
      {"roundtrip", latRoundtrip_},
  };
  bool anyLatency = false;
  std::ostringstream latencyLine;
  for (const auto& [label, hist] : stages) {
    const trace::LatencyStats stats = hist->stats();
    if (stats.count == 0) continue;
    if (anyLatency) latencyLine << "  ";
    latencyLine << label << " mean=" << strings::fixed(stats.mean() * 1e3, 3)
                << "ms p99=" << strings::fixed(stats.quantile(0.99) * 1e3, 3)
                << "ms";
    anyLatency = true;
  }
  if (anyLatency) {
    out << "batch latency: " << latencyLine.str() << "\n";
  }
  std::string lastJob;
  for (const auto& [key, info] : sources_) {
    if (key.first != lastJob) {
      lastJob = key.first;
      out << "=== job " << (lastJob.empty() ? "(default)" : lastJob)
          << " ===\n";
      out << strings::padRight("rank", 6) << strings::padRight("node", 14)
          << strings::padRight("state", 10)
          << strings::padLeft("last seen", 11)
          << strings::padLeft("records", 10)
          << strings::padLeft("cpu avg%", 10)
          << strings::padLeft("degraded", 10)
          << strings::padLeft("quarant.", 10) << '\n';
    }
    // Per-rank utilization: mean of the newest coarse windows of every
    // hwt.<n>.user_pct series this rank reports (the Figure-7 view rolled
    // up to one number), read in one walk of the source's series.
    double cpuSum = 0.0;
    int cpuCount = 0;
    const auto cpu = [&](const SeriesKey& series, const NewestWindows& newest) {
      if (newest.coarse && isHwtUserPct(series.metricName())) {
        cpuSum += newest.coarse->rollup.avg();
        ++cpuCount;
      }
    };
    store_.snapshotNewest(key.first, key.second, {})
        .forEachNewest(std::nullopt, std::nullopt, {}, cpu);
    out << strings::padRight(std::to_string(key.second), 6)
        << strings::padRight(info.hello.hostname, 14)
        << strings::padRight(sourceStateName(info.state), 10)
        << strings::padLeft(strings::fixed(info.lastSeenSeconds, 1), 11)
        << strings::padLeft(std::to_string(info.records), 10)
        << strings::padLeft(
               cpuCount > 0 ? strings::fixed(cpuSum / cpuCount, 1) : "-", 10)
        << strings::padLeft(std::to_string(info.health.samplesDegraded), 10)
        << strings::padLeft(std::to_string(info.health.quarantined), 10)
        << '\n';
  }
  // Pathology findings across ranks (stale and missing).
  bool findings = false;
  for (const auto& [key, info] : sources_) {
    if (info.state == SourceState::kStale) {
      out << "finding: rank " << key.second << " of job '" << key.first
          << "' is stale (last seen t="
          << strings::fixed(info.lastSeenSeconds, 1) << "s)\n";
      findings = true;
    }
  }
  for (const auto& [job, expected] : expectedRanks_) {
    const auto missing = missingRanks(job);
    if (!missing.empty()) {
      out << "finding: job '" << job << "' expected " << expected
          << " rank(s); never heard from:";
      for (const int rank : missing) {
        out << ' ' << rank;
      }
      out << '\n';
      findings = true;
    }
  }
  if (!findings) {
    out << "no cross-rank pathologies detected\n";
  }
  return out.str();
}

void Aggregator::readEngine(const std::function<void()>& read) const {
  if (writer_ != nullptr && writer_->threaded()) {
    // The worker thread appends to the engine; serialize reads against
    // it (the engine is single-owner by contract).
    std::lock_guard<std::mutex> lock(writer_->engineMutex());
    read();
    return;
  }
  read();
}

std::string Aggregator::query(const std::string& requestJson) const {
  std::string answer;
  readEngine([&] { answer = runQuery(*this, requestJson); });
  return answer;
}

}  // namespace zerosum::aggregator
