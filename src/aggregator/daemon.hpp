// Aggregator: the daemon core behind `zerosum-aggd` (cctools
// catalog-server style).  Owns a TransportServer and a RollupStore;
// poll() drains the transport, decodes frames, binds connections to
// sources via their Hello, merges batches into the store, answers
// queries, and evicts sources that stop reporting.  Single-threaded by
// design: the owner drives poll() from its event loop (the tool's main
// loop, a test, or the lockstep cluster simulation).
//
// Overload handling: control frames — Hello, Health,
// Heartbeat, Goodbye, Query — are processed the moment they decode, so
// liveness and findings always win over bulk data.  kBatch frames pass
// through a bounded admission queue drained by a per-poll budget; when
// the queue (or the tsdb writer behind it) fills, batches wait and the
// daemon's PressureLevel rises — clients see it in every kBatchAck and
// coarsen instead of flooding.  Admission overflow processes the oldest
// batch inline (a backstop, counted) — the daemon itself never drops an
// admitted batch.  Acks are sent only after a batch's records are
// durable (inline engine append, or past the TsdbWriter's written
// frontier), so "acked" always means "survives a crash".
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "aggregator/store.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "trace/metrics.hpp"

namespace zerosum::tsdb {
class Engine;
struct SourceRecord;
}

namespace zerosum::aggregator {

class TsdbWriter;
class Catalog;
class QueryService;

enum class SourceState : std::uint8_t {
  kActive,    ///< reporting normally
  kStale,     ///< silent past the staleness horizon (Table-1 pathology
              ///< visible across ranks: a wedged or dead rank)
  kDeparted,  ///< said goodbye (orderly exit)
};

const char* sourceStateName(SourceState state);

/// Registry entry for one (job, rank) source.
struct SourceInfo {
  Hello hello;
  SourceState state = SourceState::kActive;
  double firstSeenSeconds = 0.0;
  double lastSeenSeconds = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t records = 0;
  HealthUpdate health;
  /// Hops between the source and this daemon: 0 = connected directly,
  /// 1+ = learned from a kForward frame that far down the tree.
  std::uint8_t hops = 0;
};

/// A registry entry as the engine persisted it (tsdb::SourceRecord): a
/// source this daemon has not heard from yet, so kStale, without health.
SourceInfo recoveredSource(const tsdb::SourceRecord& record);

struct DaemonOptions {
  /// Admission queue bound, in batches.  Overflow processes the oldest
  /// inline (never drops).
  std::size_t maxPendingBatches = 1024;
  /// Batches processed per poll; 0 = unlimited (drain everything).
  std::size_t maxBatchesPerPoll = 0;
  /// Pressure thresholds over max(admission, writer) queue occupancy.
  double elevatedQueueFraction = 0.5;
  double overloadedQueueFraction = 0.9;
};

struct DaemonCounters {
  std::uint64_t framesIngested = 0;
  std::uint64_t batchesIngested = 0;
  std::uint64_t recordsIngested = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t decodeErrors = 0;   ///< connections dropped for bad bytes
  std::uint64_t orphanFrames = 0;   ///< data frames before any Hello
  std::uint64_t sourcesEvicted = 0; ///< stale sources purged from the store
  std::uint64_t queriesServed = 0;
  std::uint64_t acksSent = 0;           ///< kBatchAck frames
  std::uint64_t batchesDeferred = 0;    ///< batch-polls spent waiting in
                                        ///< the admission queue
  std::uint64_t admissionBackstops = 0; ///< overflow: oldest forced inline
  std::uint64_t writerBypasses = 0;     ///< writer full: inline append
  std::uint64_t forwardFrames = 0;      ///< kForward frames ingested
  std::uint64_t forwardWindows = 0;     ///< windows applied from kForward
  std::uint64_t forwardConflicts = 0;   ///< forwarded snapshots not newer
                                        ///< than the stored window
  std::uint64_t catalogAnnounces = 0;   ///< kCatalogAnnounce handled
  std::uint64_t clockRegressions = 0;   ///< poll() clock moved backwards
  /// Records and forwarded windows dropped because the name table was
  /// full when their name, or their connection's Hello job, was declared
  /// (names::intern refused it).
  std::uint64_t unnamedDropped = 0;
};

class Aggregator {
 public:
  Aggregator(std::unique_ptr<TransportServer> server,
             StoreOptions storeOptions = {}, DaemonOptions options = {});

  /// Drains the transport and advances staleness bookkeeping to
  /// `nowSeconds` (the owner's clock: virtual or wall).
  void poll(double nowSeconds);

  /// Attaches a persistence engine (non-owning; the caller keeps it
  /// alive past the daemon).  Every ingested batch is then WAL-logged
  /// before it becomes queryable, poll() drives incremental compaction,
  /// range/snapshot queries are answered from the engine (disk + hot
  /// windows — deeper history than the store's bounded retention), and
  /// the engine's recovered source registry seeds sources().  Recovered
  /// sources start kStale: they were alive once, but this daemon hasn't
  /// heard from them yet.
  void attachEngine(tsdb::Engine* engine);

  /// Routes engine appends through a bounded TsdbWriter instead of
  /// appending inline: a slow disk then raises pressure() instead of
  /// stalling poll().  Implies attachEngine(writer->engine()) for the
  /// query path; batch acks are gated on the writer's durable frontier.
  void attachWriter(TsdbWriter* writer);

  /// Hosts a catalog (non-owning): kCatalogAnnounce frames register with
  /// it (answered by kCatalogAck) and {"op":"catalog"} queries list it.
  /// Conventionally only the federation root attaches one.
  void attachCatalog(Catalog* catalog) { catalog_ = catalog; }
  [[nodiscard]] const Catalog* catalog() const { return catalog_; }

  /// Does nothing: the read plane answers every query from store
  /// snapshots (DESIGN.md §12) and needs no per-record hook.  Kept only
  /// because zsbench's durable_ingest and tree_dashboard still call it.
  void attachQueryService(QueryService* /*service*/) {}

  [[nodiscard]] const tsdb::Engine* engine() const { return engine_; }

  /// Runs `read`, which may read engine(), while a threaded writer
  /// cannot append to the engine: under the writer's engine mutex when
  /// one is attached, plainly otherwise.  Every read of the engine from
  /// outside poll() goes through here.
  void readEngine(const std::function<void()>& read) const;

  [[nodiscard]] const RollupStore& store() const { return store_; }
  /// Mutable store access for a co-located Forwarder (dirty-window
  /// drain, resync marking).  Not for general use.
  [[nodiscard]] RollupStore& mutableStore() { return store_; }
  [[nodiscard]] const DaemonCounters& counters() const { return counters_; }

  /// Current backpressure signal, echoed to clients in every ack.
  [[nodiscard]] PressureLevel pressure() const;

  /// Batches admitted but not yet durably processed (admission queue +
  /// writer queue).  The orderly-shutdown loop drains this to zero.
  [[nodiscard]] std::size_t ingestBacklog() const;

  /// Processes the whole backlog and flushes the writer — every admitted
  /// batch is durable and acked afterwards.  Orderly-shutdown path.
  void drainBacklog(double nowSeconds);

  /// All known sources, ordered by (job, rank).
  [[nodiscard]] std::vector<SourceInfo> sources() const;

  /// Source counts keyed by hop distance (0 = direct connections) — the
  /// /healthz and health-CSV fan-in view.
  [[nodiscard]] std::map<int, std::size_t> sourcesByHop() const;

  /// The clock poll() last ran at (after regression clamping).
  [[nodiscard]] double lastPollSeconds() const { return lastPollSeconds_; }

  /// True once at least one source was seen and every known source has
  /// departed — the `zerosum-aggd --exit-on-goodbye` condition.
  [[nodiscard]] bool allDeparted() const;

  /// Ranks expected (max worldSize announced) but never seen; the
  /// missing-rank half of the dashboard's pathology detection.
  [[nodiscard]] std::vector<int> missingRanks(const std::string& job) const;

  /// The live allocation dashboard: per-rank utilization, health, and
  /// stale/missing-rank findings.
  [[nodiscard]] std::string dashboard(double nowSeconds) const;

  /// Answers one JSON request the way a kQuery frame is answered
  /// (runQuery, query.hpp), in one readEngine() call.
  [[nodiscard]] std::string query(const std::string& requestJson) const;

 private:
  struct ConnState {
    FrameReader reader;
    bool helloSeen = false;
    std::string job;
    /// `job`, interned once; kInvalidId if the interner refused it, and
    /// then every record of the connection is dropped and counted.
    names::Id jobId = names::kInvalidId;
    int rank = 0;
    /// Client-to-daemon clock offset estimate: the running minimum of
    /// (daemon now at decode - batch encodeSeconds).  The minimum over
    /// many batches converges on (clock epoch delta + fastest transit),
    /// so one-way send->ingest latency is computable even though the two
    /// processes count seconds from different origins.  Starts unset.
    double minClockOffset = 0.0;
    bool offsetKnown = false;
  };

  /// A kBatch admitted for deferred processing.  Captures the source
  /// binding at decode time so the batch still lands if the connection
  /// closes before it is processed (lossless).
  struct PendingBatch {
    std::uint64_t connection = 0;
    names::Id job = names::kInvalidId;
    int rank = 0;
    double admittedAt = 0.0;
    /// Connection clock-offset estimate captured at admission (the
    /// connection may be gone by the time the batch is processed).
    double clockOffset = 0.0;
    Frame frame;
  };

  /// A batch ack waiting for its records to become durable.
  struct PendingAck {
    std::uint64_t connection = 0;
    std::uint64_t batchSeq = 0;
    std::uint64_t ticket = 0;   ///< writer ticket; 0 = already durable
    double ingestAt = 0.0;      ///< when processBatch ran (daemon clock)
  };

  void handleFrame(std::uint64_t connection, ConnState& conn, Frame& frame,
                   double nowSeconds);
  void admitBatch(std::uint64_t connection, ConnState& conn, Frame&& frame,
                  double nowSeconds);
  void processBatch(PendingBatch& batch, double nowSeconds);
  /// The admission queue's only mutators: they keep pendingDepth_ equal
  /// to pending_.size().
  void pushPending(PendingBatch&& batch);
  [[nodiscard]] PendingBatch popPending();
  /// Applies one admitted kForward frame: source registry upserts, then
  /// one ingestWindows() per run of consecutive same-series windows
  /// (conflicts counted, never fatal).
  void processForward(PendingBatch& batch, double nowSeconds);
  void handleCatalogAnnounce(std::uint64_t connection, const Frame& frame,
                             double nowSeconds);
  void sendAck(std::uint64_t connection, std::uint64_t batchSeq);
  /// Sends every pending ack whose records are past the durable frontier.
  void flushAcks(double nowSeconds);
  SourceInfo* sourceOf(std::string_view job, int rank);
  void persistSource(std::string_view job, int rank, const SourceInfo& info);

  std::unique_ptr<TransportServer> server_;
  tsdb::Engine* engine_ = nullptr;
  TsdbWriter* writer_ = nullptr;
  Catalog* catalog_ = nullptr;
  /// Deepest hop count seen on any kForward frame (drives the fan-in
  /// depth gauge).
  std::uint8_t maxHopsSeen_ = 0;
  /// poll()'s clamped clock: liveness deadlines only ever compare
  /// against a non-decreasing time base, so an owner whose wall clock
  /// steps backwards (NTP) cannot mass-expire sources.
  double lastPollSeconds_ = 0.0;
  RollupStore store_;
  DaemonOptions options_;
  DaemonCounters counters_;
  std::map<std::uint64_t, ConnState> connections_;
  std::deque<PendingBatch> pending_;
  /// pending_.size() for pressure() and ingestBacklog(), which query
  /// threads call (QueryService::execute) while poll() admits and drains.
  std::atomic<std::size_t> pendingDepth_{0};
  std::deque<PendingAck> pendingAcks_;
  /// Per-source ingest cache: metric id -> resolved store series.  Keyed
  /// by (job id, rank) — not per connection — so deferred batches and
  /// reconnecting clients reuse the resolved refs, and a record's series
  /// is found by its id without walking the store's map.
  std::map<std::pair<names::Id, int>,
           std::map<names::Id, RollupStore::SeriesRef>>
      seriesRefs_;
  /// (job, rank) -> registry entry.
  std::map<std::pair<std::string, int>, SourceInfo> sources_;
  /// Highest worldSize announced per job (missing-rank detection).
  std::map<std::string, int> expectedRanks_;

  // --- latency attribution + live gauges (per instance: tests reset the
  // registry between cases, so no static handles) ---------------------------
  trace::LatencyHistogram* latEnqueueToSend_ = nullptr;
  trace::LatencyHistogram* latSendToIngest_ = nullptr;
  trace::LatencyHistogram* latIngestToDurable_ = nullptr;
  trace::LatencyHistogram* latRoundtrip_ = nullptr;
  trace::Gauge* gaugePressure_ = nullptr;
  trace::Gauge* gaugeBacklog_ = nullptr;
  trace::Counter* ctrRecordsIngested_ = nullptr;
  trace::Counter* ctrSourcesEvicted_ = nullptr;
  // Federation health (zs.aggd.fanin.*): receiver-side counters; the
  // sender-side twins live on the Forwarder.
  trace::Counter* ctrFaninFrames_ = nullptr;
  trace::Counter* ctrFaninWindows_ = nullptr;
  trace::Counter* ctrFaninConflicts_ = nullptr;
  trace::Gauge* gaugeFaninMaxHops_ = nullptr;
};

}  // namespace zerosum::aggregator
