// Aggregation client embedded in the monitored process ("do no harm",
// paper §3.1): a bounded send queue drained synchronously from the
// publish path.  Nothing here can stall or crash the application —
//
//   * enqueueIds() is O(records) copies into a bounded queue; when the
//     queue is full the oldest records are dropped and counted;
//   * pump() flushes batches by count/age through the Transport; a
//     failed send marks the connection dead, keeps the batch queued for
//     the next connection (the queue bound still caps memory — overflow
//     drops oldest), and schedules a reconnect with exponential backoff
//     (jittered, so thousands of ranks don't stampede a restarted
//     daemon in lockstep) — an absent daemon costs one cheap failed
//     connect() every backoff interval, not one per period.  A daemon
//     restart therefore loses no records the client still holds.
//
// Overload is handled by a degradation ladder, not by dropping (the
// ROADMAP's "degrades to coarser resolution instead of dropping"):
//
//   kFull      every record queued at full resolution.
//   kCoarse    records fold into per-metric min/avg/max rollups over a
//              coarsening window (RollupStore math); each window emits
//              three records per metric instead of hundreds.
//   kEssential bulk records are shed (counted as drops — the ladder is
//              exhausted); health updates and heartbeats still flow.
//
// The ladder escalates on local queue occupancy and on the daemon's
// acked PressureLevel (kBatchAck), and climbs back down after a
// run of calm pumps.  See DESIGN.md §9 for the exact transition rules.
//
// The client is not a thread: the owner (SessionPublisher) calls
// enqueueIds()+pump() per sampling period on whatever thread publishes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aggregator/store.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "trace/metrics.hpp"

namespace zerosum::aggregator {

struct ClientOptions {
  /// Queue bound, in records; overflow drops the oldest.
  std::size_t maxQueueRecords = 8192;
  /// Flush when this many records are queued...
  std::size_t batchRecords = 256;
  /// ...or when the oldest queued record is this old.
  double batchAgeSeconds = 1.0;
  /// First reconnect delay; doubles per failure up to the cap.
  double reconnectBackoffSeconds = 1.0;
  double reconnectBackoffCapSeconds = 30.0;
  /// Each reconnect delay is multiplied by a factor drawn uniformly from
  /// [1 - f, 1 + f] (the unjittered schedule still drives the doubling).
  /// 0 disables jitter (exact schedules for tests).
  double reconnectJitterFraction = 0.1;
  /// Seed for the jitter PRNG; 0 derives one from the client identity so
  /// every rank jitters differently by default.
  std::uint64_t jitterSeed = 0;

  /// Escalate one ladder level when queue occupancy reaches this.
  double escalateOccupancy = 0.8;
  /// A pump is "calm" when occupancy is below this and acked pressure
  /// is ok.
  double clearOccupancy = 0.5;
  /// De-escalate one level after this many consecutive calm pumps.
  int deescalateAfterPumps = 5;
  /// Width of the client-side pre-aggregation window at kCoarse.
  double coarsenWindowSeconds = 5.0;
  /// An acked pressure level older than this no longer pins the ladder
  /// (a daemon that died overloaded must not freeze its clients coarse).
  double pressureStaleSeconds = 10.0;
  /// Send a liveness heartbeat when connected and nothing else went out
  /// for this long.  0 disables (the default: callers that want
  /// heartbeats — the cluster sim, live wiring — opt in).
  double heartbeatSeconds = 0.0;
  /// Bound on the unacked-batch bookkeeping.
  std::size_t maxInflightAcks = 256;
};

/// Degradation ladder state (kFull is the normal path).
enum class DegradeLevel : std::uint8_t {
  kFull = 0,
  kCoarse = 1,
  kEssential = 2,
};

[[nodiscard]] const char* degradeLevelName(DegradeLevel level);

struct ClientCounters {
  std::uint64_t recordsEnqueued = 0;
  std::uint64_t recordsSent = 0;
  std::uint64_t recordsDropped = 0;  ///< overflow + unflushable goodbye +
                                     ///< ladder exhausted (kEssential)
  std::uint64_t batchesSent = 0;
  std::uint64_t sendFailures = 0;
  std::uint64_t connectFailures = 0;  ///< failed connect() attempts
  std::uint64_t reconnects = 0;  ///< successful (re)connects after the first
  std::uint64_t recordsCoarsened = 0;   ///< inputs folded at kCoarse
  std::uint64_t coarseRecordsEmitted = 0;  ///< min/avg/max outputs emitted
  std::uint64_t degradeTransitions = 0;    ///< ladder moves, either way
  std::uint64_t acksReceived = 0;
  std::uint64_t recordsAcked = 0;  ///< records covered by daemon acks
  std::uint64_t heartbeatsSent = 0;
};

class Client {
 public:
  /// The client owns the transport; `identity` is announced on every
  /// (re)connect.
  Client(std::unique_ptr<Transport> transport, Hello identity,
         ClientOptions options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Queues records for delivery (bounded; drops oldest on overflow) and
  /// pumps.  `nowSeconds` is the caller's clock — virtual time in the
  /// simulator, wall time live — and drives batch age and backoff.
  /// Names stay interned ids all the way into the outgoing frame, which
  /// sends a name's text only the first time the connection uses it, so
  /// the steady-state publish path never touches a string.
  void enqueueIds(const std::vector<IdRecord>& records, double nowSeconds);

  /// Flushes due batches, drains daemon acks, advances the degradation
  /// ladder, and handles reconnect scheduling.  Safe to call every
  /// period regardless of connection state.
  void pump(double nowSeconds);

  /// Sends a health update (best-effort, never queued).
  void sendHealth(const HealthUpdate& health, double nowSeconds);

  /// Flushes everything still queued and sends kGoodbye.
  void goodbye(double nowSeconds);

  [[nodiscard]] bool connected() const { return transport_->connected(); }
  [[nodiscard]] const ClientCounters& counters() const { return counters_; }

  /// Current degradation ladder level.
  [[nodiscard]] DegradeLevel level() const { return level_; }
  /// Last daemon pressure seen in an ack (kOk before any ack arrives).
  [[nodiscard]] PressureLevel pressure() const { return pressure_; }

 private:
  /// True when connected (connecting if due).  Sends Hello on a fresh
  /// connection.
  bool ensureConnected(double nowSeconds);
  void flush(double nowSeconds, bool force);
  void dropOverflow();
  void pushQueued(const IdRecord& record, double nowSeconds);

  /// Drains daemon->client bytes (kBatchAck frames) into the ladder
  /// inputs.  A malformed frame closes the connection.
  void processIncoming(double nowSeconds);
  /// Applies the escalation/de-escalation rules for one pump.
  void updateLadder(double nowSeconds);
  void setLevel(DegradeLevel next, double nowSeconds);
  /// Folds one record into the open coarsening window.
  void coarsen(const IdRecord& record, double nowSeconds);
  /// Emits the open window's min/avg/max records into the queue.
  void closeCoarseWindow(double nowSeconds);
  void maybeHeartbeat(double nowSeconds);
  /// splitmix64 step for backoff jitter; uniform in [0, 1).
  double nextJitterUnit();

  std::unique_ptr<Transport> transport_;
  Hello identity_;
  ClientOptions options_;
  ClientCounters counters_;

  struct Queued {
    IdRecord record;
    double enqueuedAt = 0.0;
  };
  /// FIFO spelled as vector + head index: pops advance head_ and
  /// popFront() recycles the dead prefix with a move once it outweighs
  /// the live tail, so the buffer reaches a fixed capacity and then the
  /// steady state allocates nothing (a deque allocates and frees blocks
  /// every period).
  std::vector<Queued> queue_;
  std::size_t head_ = 0;

  [[nodiscard]] std::size_t queueSize() const {
    return queue_.size() - head_;
  }
  void popFront(std::size_t n);

  bool everConnected_ = false;
  double nextConnectAt_ = 0.0;   ///< earliest next connect attempt
  double currentBackoff_ = 0.0;  ///< 0 = connect immediately (unjittered)
  std::uint64_t jitterState_ = 0;

  // --- ladder state --------------------------------------------------------
  DegradeLevel level_ = DegradeLevel::kFull;
  PressureLevel pressure_ = PressureLevel::kOk;
  double pressureAt_ = -1.0;  ///< when the last ack arrived; <0 = never
  int pumpsSinceTransition_ = 1000;  ///< large: first escalation is free
  int calmPumps_ = 0;

  // --- coarsening window ---------------------------------------------------
  bool coarseOpen_ = false;
  double coarseWindowStart_ = 0.0;
  std::map<names::Id, Rollup> coarse_;
  /// Derived ".min"/".max" metric ids, interned once per base metric.
  struct CoarseIds {
    names::Id minId = names::kInvalidId;
    names::Id maxId = names::kInvalidId;
  };
  std::map<names::Id, CoarseIds> coarseIds_;

  // --- ack tracking --------------------------------------------------------
  struct Inflight {
    std::uint64_t seq = 0;
    std::uint64_t records = 0;
    double sentAt = 0.0;  ///< client clock at send; drives round-trip stats
  };
  std::vector<Inflight> inflight_;  ///< FIFO, bounded by maxInflightAcks
  std::uint64_t nextBatchSeq_ = 1;
  FrameReader ackReader_;
  std::string recvScratch_;
  /// The connection's name table; cleared on every new connection.
  NameRefs names_;

  double lastSendAt_ = 0.0;  ///< drives the idle-heartbeat timer

  // --- latency attribution + live gauges -----------------------------------
  // Handles resolved once at construction (per instance, not static:
  // tests reset the registry between cases, and a static handle would
  // dangle).  observe()/set() on them are lock-free and allocation-free,
  // so stamping stays inside the zero-allocation hot-path contract.
  trace::Counter* ctrEnqueued_ = nullptr;
  trace::Counter* ctrDropped_ = nullptr;
  trace::Counter* ctrReconnects_ = nullptr;
  trace::Counter* ctrCoarsened_ = nullptr;
  trace::Counter* ctrDegradeTransitions_ = nullptr;
  trace::LatencyHistogram* latEnqueueToSend_ = nullptr;
  trace::LatencyHistogram* latRoundtrip_ = nullptr;
  trace::Gauge* gaugeDegradeStage_ = nullptr;
  trace::Gauge* gaugeAckedPressure_ = nullptr;
  /// Most recently completed batch round-trip; <0 until the first ack.
  double lastRoundtripSeconds_ = -1.0;
};

}  // namespace zerosum::aggregator
