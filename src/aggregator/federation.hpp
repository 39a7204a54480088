// Federation: the hierarchical fan-in tree (DESIGN.md §11).
//
// A flat daemon stops scaling when thousands of ranks hit one poll loop;
// the paper's answer (§6 "across the application processes") is the
// classic monitoring tree: every node daemon aggregates its local ranks,
// forwards pre-aggregated rollup windows to a group daemon, and the
// groups forward to a root that answers queries over the union.  Three
// pieces live here:
//
//   * HashRing — consistent-hash routing of (job, rank, metric) series
//     across the upstream set.  Series hash into a fixed shard space
//     (wire.hpp kShardSpace); each upstream covers a shard range and
//     owns virtual points on the ring, so membership changes move only
//     the series that hashed near the departed daemon.
//   * Forwarder — the child half of the hop-by-hop protocol.  Drains the
//     local RollupStore's dirty windows a series block at a time, routes
//     each series once through the ring, queues its windows on the
//     owning link, and re-batches them upstream as kForward frames,
//     reusing the kBatchAck pressure/ack loop.  Windows are *cumulative
//     snapshots*, so the loss story needs no persistent send queue: any
//     reconnect or membership change marks the whole store dirty again
//     (a full resync) and replaying is idempotent upstream.  Under acked
//     upstream pressure the forwarder coarsens — it keeps shipping
//     coarse windows and withholds fine ones — instead of dropping.
//   * CatalogAnnouncer — the membership half: periodically re-announces
//     this daemon's {role, host, port, shard-range, generation} to the
//     catalog daemon (kCatalogAnnounce/kCatalogAck) so peers can resolve
//     it; adopts the catalog-assigned generation on the first ack.
//
// FederationTree wires a full node -> group -> root tree over in-memory
// PipeHubs — the deterministic harness behind the cluster simulation's
// tree mode and the federation tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregator/catalog.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/store.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "trace/metrics.hpp"

namespace zerosum::aggregator {

/// Stable shard of a series: FNV-1a over (job, rank, metric), folded
/// into [0, kShardSpace).  Every daemon in a federation must agree on
/// this function, so it is a free function, not policy.
[[nodiscard]] std::uint32_t shardOfSeries(const SeriesKey& key);

/// Consistent-hash ring over a set of catalog entries.  Each entry
/// contributes `pointsPerEntry` virtual points (hashed from its name);
/// a shard routes to the first point clockwise whose entry covers the
/// shard's range.  Rebalancing rule (DESIGN.md §11): when the entry set
/// changes, only series whose owning point vanished (or whose arc a new
/// point split) move — but forwarders still full-resync on any change,
/// because moved series must reach their new owner from scratch.
class HashRing {
 public:
  HashRing() = default;
  explicit HashRing(std::vector<CatalogEntry> entries, int pointsPerEntry = 32);

  /// The entry owning `shard`; nullptr when the ring is empty or no
  /// entry's [shardLo, shardHi] covers the shard.
  [[nodiscard]] const CatalogEntry* route(std::uint32_t shard) const;

  [[nodiscard]] const std::vector<CatalogEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// True when `entries` names the same membership (name, generation,
  /// shard range, address) as this ring — the "nothing changed, keep
  /// forwarding" fast path.
  [[nodiscard]] bool sameMembership(
      const std::vector<CatalogEntry>& entries) const;

 private:
  std::vector<CatalogEntry> entries_;
  /// (ring position, index into entries_), sorted by position.
  std::vector<std::pair<std::uint32_t, std::size_t>> points_;
};

struct ForwarderOptions {
  /// Identity stamped into every kForward frame's origin field.
  std::string origin = "forwarder";
  /// Hop count stamped on forwarded data (leaf daemon = 1: the data has
  /// taken one hop by the time the parent sees it).
  std::uint8_t hopCount = 1;
  /// Windows per kForward frame; more amortizes framing, less bounds
  /// per-frame latency.
  std::size_t maxWindowsPerFrame = 512;
  /// Unacked kForward frames per upstream before sending pauses.
  std::size_t maxInflight = 64;
  /// Reconnect backoff (same shape as ClientOptions).
  double reconnectBackoffSeconds = 0.25;
  double reconnectBackoffCapSeconds = 5.0;
  /// Acked pressure older than this decays to ok.
  double pressureStaleSeconds = 10.0;
  /// Re-send the source registry (liveness propagation) at least this
  /// often even when no windows are dirty.
  double sourceRefreshSeconds = 1.0;
};

struct ForwarderCounters {
  std::uint64_t framesForwarded = 0;
  std::uint64_t windowsForwarded = 0;
  std::uint64_t sendFailures = 0;
  std::uint64_t connectFailures = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t resyncs = 0;            ///< full markAllDirty replays
  std::uint64_t membershipChanges = 0;  ///< upstream set rebuilds
  std::uint64_t acksReceived = 0;
  std::uint64_t coarseOnlyFrames = 0;   ///< frames built under pressure
  std::uint64_t windowsSuppressed = 0;  ///< fine windows withheld
  std::uint64_t windowsUnroutable = 0;  ///< no upstream covered the shard
};

/// The child half of one federation hop: local daemon's store -> one or
/// more upstream daemons.  Not a thread; the owner calls pump() from the
/// same loop that polls the local daemon.
class Forwarder {
 public:
  /// Opens a transport to one upstream (called per catalog entry when
  /// the membership changes).
  using TransportFactory =
      std::function<std::unique_ptr<Transport>(const CatalogEntry&)>;

  Forwarder(Aggregator& local, TransportFactory factory,
            ForwarderOptions options = {});

  /// Replaces the upstream set (normally the catalog's current view).
  /// A membership change rebuilds the ring and triggers a full resync;
  /// an identical set is a cheap no-op.
  void setUpstreams(const std::vector<CatalogEntry>& entries,
                    double nowSeconds);

  /// One forwarding round: drain acks, drain the store's dirty windows,
  /// route, batch, send.  Safe to call every period regardless of
  /// connection state.
  void pump(double nowSeconds);

  /// Worst effective acked pressure across upstream links.
  [[nodiscard]] PressureLevel upstreamPressure(double nowSeconds) const;

  /// True when nothing is waiting: no dirty windows, no pending routed
  /// windows, no unacked frames.  The quiesce condition for tests and
  /// orderly shutdown.
  [[nodiscard]] bool quiesced() const;

  /// Windows drained from the store but not yet sent (all links).
  [[nodiscard]] std::size_t pendingWindows() const;
  /// Unacked kForward frames across links.
  [[nodiscard]] std::size_t inflightFrames() const;

  [[nodiscard]] const ForwarderCounters& counters() const {
    return counters_;
  }
  [[nodiscard]] const HashRing& ring() const { return ring_; }

 private:
  struct Inflight {
    std::uint64_t seq = 0;
    std::uint64_t windows = 0;
  };

  struct Link {
    CatalogEntry entry;
    std::unique_ptr<Transport> transport;
    FrameReader reader;
    std::string recvScratch;
    /// The connection's name table; cleared on every new connection.
    NameRefs names;
    /// Routed windows awaiting send: per series in key order, each
    /// series' windows in (resolution, index) order.  A newer snapshot of
    /// a queued window replaces it in place, and queuing a newer block of
    /// a series trims that series to the retention horizon of its newest
    /// queued window, so however long the upstream stays away, no series
    /// queues more windows than the store retains for it.
    std::map<SeriesKey, std::vector<WindowSnapshot>> pending;
    std::vector<Inflight> inflight;  ///< FIFO; acks are cumulative
    std::uint64_t nextSeq = 1;
    PressureLevel pressure = PressureLevel::kOk;
    double pressureAt = -1.0;  ///< <0 = no ack yet
    double nextConnectAt = 0.0;
    double currentBackoff = 0.0;
    double lastSourceRefresh = -1.0;
    bool everConnected = false;
  };

  bool ensureConnected(Link& link, double nowSeconds);
  void closeLink(Link& link, double nowSeconds);
  void processIncoming(Link& link, double nowSeconds);
  void drainStore(double nowSeconds);
  void enqueue(Link& link, const SeriesKey& key,
               std::span<const WindowSnapshot> windows);
  void sendPending(Link& link, double nowSeconds);
  void resync();
  [[nodiscard]] PressureLevel effectivePressure(const Link& link,
                                                double nowSeconds) const;
  void fillSources(Frame& frame, double nowSeconds) const;

  Aggregator& local_;
  TransportFactory factory_;
  ForwarderOptions options_;
  ForwarderCounters counters_;
  HashRing ring_;
  std::vector<std::unique_ptr<Link>> links_;
  SeriesBlocks drainScratch_;

  trace::Counter* ctrForwardedBatches_ = nullptr;
  trace::Counter* ctrForwardedWindows_ = nullptr;
  trace::Counter* ctrResyncs_ = nullptr;
  trace::Counter* ctrSuppressed_ = nullptr;
  trace::Gauge* gaugeUpstreamPressure_ = nullptr;
};

struct AnnouncerOptions {
  /// Re-announce at least this often; must comfortably undercut the
  /// catalog's TTL or the entry flaps.
  double intervalSeconds = 5.0;
  double reconnectBackoffSeconds = 0.25;
  double reconnectBackoffCapSeconds = 5.0;
};

struct AnnouncerCounters {
  std::uint64_t announcesSent = 0;
  std::uint64_t acksReceived = 0;
  std::uint64_t sendFailures = 0;
  std::uint64_t staleAcks = 0;  ///< ack carried an older generation
};

/// Periodically registers one daemon with the catalog.  Announces with
/// generation 0 first (the catalog assigns the next incarnation number)
/// and adopts the granted generation from the kCatalogAck.
class CatalogAnnouncer {
 public:
  CatalogAnnouncer(std::unique_ptr<Transport> transport, CatalogEntry self,
                   AnnouncerOptions options = {});

  void pump(double nowSeconds);

  [[nodiscard]] const CatalogEntry& self() const { return self_; }
  [[nodiscard]] std::uint64_t generation() const { return self_.generation; }
  [[nodiscard]] const AnnouncerCounters& counters() const {
    return counters_;
  }

 private:
  std::unique_ptr<Transport> transport_;
  CatalogEntry self_;
  AnnouncerOptions options_;
  AnnouncerCounters counters_;
  FrameReader reader_;
  std::string recvScratch_;
  double lastAnnounceAt_ = -1.0;
  double nextConnectAt_ = 0.0;
  double currentBackoff_ = 0.0;
};

struct FederationTreeOptions {
  int groups = 2;
  int nodesPerGroup = 2;
  StoreOptions storeOptions;
  DaemonOptions daemonOptions;
  double catalogTtlSeconds = 6.0;
  double announceIntervalSeconds = 1.0;
  ForwarderOptions forwarderOptions;  ///< origin/hopCount set per daemon
};

/// A complete in-process fan-in tree over PipeHubs: `nodesPerGroup *
/// groups` node daemons forward through `groups` group daemons into one
/// root that hosts the catalog.  Deterministic — step(now) advances
/// every daemon, forwarder, and announcer exactly once on the caller's
/// clock.  crashGroup()/restartGroup() model a mid-tier daemon dying:
/// its hub goes down, its catalog entry ages out, and the node
/// forwarders re-resolve and re-route around it.
class FederationTree {
 public:
  explicit FederationTree(FederationTreeOptions options = {});
  ~FederationTree();

  FederationTree(const FederationTree&) = delete;
  FederationTree& operator=(const FederationTree&) = delete;

  [[nodiscard]] int groups() const { return options_.groups; }
  [[nodiscard]] int nodesPerGroup() const { return options_.nodesPerGroup; }

  [[nodiscard]] Aggregator& root() { return *root_; }
  [[nodiscard]] Aggregator& group(int g) { return *groups_.at(g)->daemon; }
  [[nodiscard]] Aggregator& node(int g, int n) {
    return *nodes_.at(indexOf(g, n))->daemon;
  }
  [[nodiscard]] Catalog& catalog() { return catalog_; }
  [[nodiscard]] const Forwarder& nodeForwarder(int g, int n) const {
    return *nodes_.at(indexOf(g, n))->forwarder;
  }
  [[nodiscard]] const Forwarder& groupForwarder(int g) const {
    return *groups_.at(g)->forwarder;
  }

  /// Client endpoint into one node daemon (what rank Clients connect
  /// through).
  [[nodiscard]] std::unique_ptr<Transport> makeNodeTransport(int g, int n);
  /// Client endpoint into the root (queries, catalog resolution).
  [[nodiscard]] std::unique_ptr<Transport> makeRootTransport();

  /// One lockstep round: node daemons ingest, node forwarders push to
  /// groups, groups ingest and push to the root, the root ingests,
  /// announcers refresh the catalog, and expired entries age out.
  void step(double nowSeconds);

  /// Convenience: step() `rounds` times, advancing `nowSeconds` by `dt`
  /// per round.  Returns the final clock.
  double settle(double nowSeconds, double dt, int rounds);

  /// Kills group g: its hub drops every connection and stops accepting
  /// new ones; its daemon, forwarder, and announcer stop running.
  void crashGroup(int g);
  [[nodiscard]] bool groupAlive(int g) const {
    return groups_.at(g)->alive;
  }
  /// Restarts group g with a fresh (empty) store.  Node forwarders
  /// resync into it once the catalog lists the new incarnation.
  void restartGroup(int g, double nowSeconds);

  /// True when every forwarder at both tiers has quiesced — all dirty
  /// windows delivered and acked all the way to the root.
  [[nodiscard]] bool quiesced() const;

 private:
  struct NodeRuntime {
    std::unique_ptr<PipeHub> hub;  ///< rank clients connect here
    std::unique_ptr<Aggregator> daemon;
    std::unique_ptr<Forwarder> forwarder;
    std::unique_ptr<CatalogAnnouncer> announcer;
  };

  struct GroupRuntime {
    std::unique_ptr<PipeHub> hub;  ///< node forwarders connect here
    std::unique_ptr<Aggregator> daemon;
    std::unique_ptr<Forwarder> forwarder;
    std::unique_ptr<CatalogAnnouncer> announcer;
    bool alive = true;
  };

  [[nodiscard]] int indexOf(int g, int n) const {
    return g * options_.nodesPerGroup + n;
  }
  void buildGroup(int g, double nowSeconds);

  FederationTreeOptions options_;
  Catalog catalog_;
  std::unique_ptr<PipeHub> rootHub_;
  std::unique_ptr<Aggregator> root_;
  std::vector<std::unique_ptr<GroupRuntime>> groups_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
};

}  // namespace zerosum::aggregator
