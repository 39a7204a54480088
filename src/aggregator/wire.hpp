// Aggregation wire protocol (paper §6: collecting ZeroSum data "from
// across the application processes" into a node/job-level service).
//
// Compact length-prefixed binary frames, modeled on the catalog-server /
// deltadb split in cctools: a client announces itself once (kHello),
// streams metric batches and health updates, and says goodbye; queries
// and their responses ride the same framing as JSON payloads.  Every
// frame is self-delimiting so the daemon can decode from a byte stream
// that arrives in arbitrary chunks:
//
//   [u32 payload length][u8 version][u8 kind][payload...]
//
// Integers are little-endian fixed width; strings are u16-length-prefixed.
// Decoding is strict: a truncated payload, an unknown kind, or a version
// other than kWireVersion throws ParseError — the daemon drops the
// offending connection and counts the error rather than guessing.
//
// Every kBatch carries a u64 batch sequence number and three f64
// latency-attribution stamps (client clock): enqueueSeconds (the oldest
// record's queue time), encodeSeconds (frame encode) and
// prevRoundtripSeconds (the last completed batch round-trip; negative =
// none yet), from which the daemon builds its per-stage latency
// histograms (DESIGN.md §10).  The daemon acks each batch once durable,
// and each heartbeat at once with seq 0, in a kBatchAck carrying its
// pressure level: the backpressure signal behind the client's ladder.
// Federation (DESIGN.md §11) adds kForward, pre-aggregated rollup windows
// sent hop-by-hop up the fan-in tree with the forwarder identity, origin
// rank range and hop count; it reuses batchSeq + kBatchAck.
// kCatalogAnnounce registers a daemon {role, host, port, shard range,
// generation} with a catalog, and kCatalogAck confirms it with the
// expiry horizon; lookups ride kQuery.
//
// Names cross a connection once (DESIGN.md §9).  Each connection has a
// name table on both ends: a name's reference is its position in the
// order the connection declared names, from 0.  kBatch and kForward
// carry a names section, [u32 n] then n [str name], declaring the names
// they reference for the first time; after it they refer to names by u32
// reference only:
//
//   kBatch    [f64 time][u64 batchSeq][f64 enqueue][f64 encode]
//             [f64 prevRoundtrip] names [u32 records], each record
//             [f64 time][u32 ref][f64 value] (20 bytes)
//   kForward  [f64 time][u64 batchSeq][u8 hops][str origin][i32 rankLo]
//             [i32 rankHi][u16 sources] sources names [u32 series], each
//             [u32 job ref][i32 rank][u32 metric ref][u32 windows >= 1]
//             then per window [u8 resolution][u64 index][f64 min]
//             [f64 max][f64 sum][u64 count]
//
// A sender keeps a NameRefs per connection and clears it when a new
// connection starts; the receiver's FrameReader, one per connection,
// interns each declared name and resolves references as it decodes, so
// a decoded frame holds the receiver's own ids and no text.  A reference
// not yet declared, a names count the payload cannot hold, or a table
// past kMaxConnectionNames throws ParseError.  Windows are cumulative
// snapshots, so a retransmit replaces rather than double-counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aggregator/store.hpp"
#include "common/interning.hpp"

namespace zerosum::aggregator {

/// Protocol version, the only one spoken; bumped on any layout change.
inline constexpr std::uint8_t kWireVersion = 6;

/// Most names one connection may declare: a peer grows the receiver's
/// table only by names it actually sends, and only this far.
inline constexpr std::uint32_t kMaxConnectionNames = 1U << 20;

/// Hard ceiling on a single frame's payload (defense against a corrupt
/// or hostile length prefix allocating gigabytes).
inline constexpr std::uint32_t kMaxPayloadBytes = 4U << 20;

enum class FrameKind : std::uint8_t {
  kHello = 1,      ///< source identity; first frame on every connection
  kBatch = 2,      ///< one sampling period's metric records
  kHealth = 3,     ///< monitor self-health counters
  kHeartbeat = 4,  ///< liveness when a period produced no records
  kGoodbye = 5,    ///< orderly shutdown of the source
  kQuery = 6,      ///< JSON query request (reader connections)
  kResponse = 7,   ///< JSON query response (daemon -> reader)
  kBatchAck = 8,   ///< daemon -> client batch/heartbeat ack + pressure
  kForward = 9,    ///< pre-aggregated rollup windows, child -> parent
  kCatalogAnnounce = 10,  ///< daemon registration with the catalog
  kCatalogAck = 11,       ///< catalog -> announcer confirmation
};

/// Daemon-side ingest pressure, computed from admission-queue depth and
/// tsdb-writer lag, echoed to clients in every kBatchAck.
enum class PressureLevel : std::uint8_t {
  kOk = 0,          ///< ingest keeping up
  kElevated = 1,    ///< backlog building: clients should coarsen
  kOverloaded = 2,  ///< backlog near the bound: shed aggressively
};

[[nodiscard]] const char* pressureLevelName(PressureLevel level);

/// Source identity carried by kHello.
struct Hello {
  std::string job;       ///< allocation/job identifier
  std::int32_t rank = 0;
  std::int32_t worldSize = 0;
  std::string hostname;
  std::int32_t pid = 0;

  friend bool operator==(const Hello&, const Hello&) = default;
};

/// One metric observation, the metric name held as an interned id
/// (names::intern).  The source identity comes from the connection's
/// Hello.  Ids are process-local: on the wire the name is a reference
/// into the connection's name table, declared with its text once, and
/// the receiver decodes it into its own id.
struct IdRecord {
  double timeSeconds = 0.0;
  names::Id name = names::kInvalidId;
  double value = 0.0;

  friend bool operator==(const IdRecord&, const IdRecord&) = default;
};

/// Monitor self-health counters (core::MonitorHealth, flattened).
struct HealthUpdate {
  std::uint64_t samplesTaken = 0;
  std::uint64_t samplesDegraded = 0;
  std::uint64_t samplesDropped = 0;
  std::uint64_t loopOverruns = 0;
  std::uint32_t quarantined = 0;

  friend bool operator==(const HealthUpdate&, const HealthUpdate&) = default;
};

/// Position of a daemon in the fan-in tree (DESIGN.md §11).
enum class DaemonRole : std::uint8_t {
  kNode = 0,   ///< leaf: ingests ranks point-to-point, forwards rollups
  kGroup = 1,  ///< mid-tier: merges node rollups, forwards to the root
  kRoot = 2,   ///< apex: union of every series; hosts the catalog
};

[[nodiscard]] const char* daemonRoleName(DaemonRole role);
/// Parses "node"/"group"/"root"; throws ParseError on anything else.
[[nodiscard]] DaemonRole daemonRoleFromString(const std::string& name);

/// Source-registry propagation inside a kForward frame: the forwarding
/// daemon's view of one (job, rank), so every level of the tree can
/// answer sources()/missing-rank queries.  lastSeenAgeSeconds is an age
/// relative to the forwarder's clock at encode time — ages survive epoch
/// differences between daemons; absolute stamps would not.
struct ForwardSource {
  std::string job;
  std::int32_t rank = 0;
  std::int32_t worldSize = 0;
  std::string hostname;
  std::uint8_t state = 0;  ///< SourceState as u8
  double lastSeenAgeSeconds = 0.0;

  friend bool operator==(const ForwardSource&, const ForwardSource&) = default;
};

/// Shard space for catalog shard ranges: series hash to a shard in
/// [0, kShardSpace); an entry serves the inclusive [shardLo, shardHi]
/// slice of that space.  Multiple entries covering the same shard are
/// disambiguated by consistent hashing (federation.hpp).
inline constexpr std::uint32_t kShardSpace = 1U << 16;

/// One catalog registration: kCatalogAnnounce payload and the catalog's
/// stored record (cctools catalog_server-style: announce-with-TTL).
struct CatalogEntry {
  DaemonRole role = DaemonRole::kNode;
  std::string name;  ///< stable daemon identity (host:port or a label)
  std::string host;
  std::int32_t port = 0;
  std::uint32_t shardLo = 0;
  std::uint32_t shardHi = kShardSpace - 1;
  /// Announcer's incarnation: bumped on restart so the catalog (and
  /// anyone resolving through it) can tell a rebooted daemon from a
  /// duplicate announce.
  std::uint64_t generation = 0;

  friend bool operator==(const CatalogEntry&, const CatalogEntry&) = default;
};

/// A decoded frame.  Only the members matching `kind` are meaningful
/// (a tagged union spelled as a struct: the payloads are small and the
/// decode path stays trivially safe).
struct Frame {
  FrameKind kind = FrameKind::kHeartbeat;
  Hello hello;                    ///< kHello
  std::vector<IdRecord> records;  ///< kBatch
  HealthUpdate health;              ///< kHealth
  double timeSeconds = 0.0;         ///< kBatch / kHeartbeat / kGoodbye
  std::string text;                 ///< kQuery / kResponse (JSON)
  /// kBatch / kForward / kBatchAck: sender-assigned sequence number
  /// (0 = a heartbeat ack).
  std::uint64_t batchSeq = 0;
  PressureLevel pressure = PressureLevel::kOk;  ///< kBatchAck
  /// kBatch: latency-attribution stamps, client clock.  Negative
  /// prevRoundtripSeconds means "no completed round-trip yet" (0.0 is a
  /// legitimate duration under the lockstep virtual clock).
  double enqueueSeconds = 0.0;
  double encodeSeconds = 0.0;
  double prevRoundtripSeconds = -1.0;
  // --- kForward -------------------------------------------------------------
  std::string origin;     ///< forwarding daemon identity
  std::uint8_t hopCount = 0;  ///< hops already taken (leaf batch = 0)
  std::int32_t rankLo = 0;    ///< origin rank range covered by this frame
  std::int32_t rankHi = -1;   ///< (empty range when rankHi < rankLo)
  std::vector<ForwardSource> forwardSources;
  SeriesBlocks forwardSeries;
  // --- kCatalogAnnounce / kCatalogAck --------------------------------------
  CatalogEntry catalogEntry;       ///< kCatalogAnnounce
  double catalogTtlSeconds = 0.0;  ///< kCatalogAck: expiry horizon granted
};

/// The sender's half of one connection's name table: the reference each
/// local id was declared under, counted from 0 in declaration order.
/// Clear it whenever a new connection starts.
class NameRefs {
 public:
  void clear();

  /// Starts one frame's names section: forgets the previous frame's
  /// declarations.
  void beginFrame() { fresh_.clear(); }
  /// The reference of `id`, declared in this frame's section when the
  /// table lacks it.
  std::uint32_t refer(names::Id id);
  /// This frame's declarations, in reference order.
  [[nodiscard]] const std::vector<names::Id>& declared() const {
    return fresh_;
  }

 private:
  std::vector<std::uint32_t> refs_;  ///< by id: reference + 1; 0 = none
  std::uint32_t declared_ = 0;
  std::vector<names::Id> fresh_;
};

/// Serializes one frame, length prefix included, declaring only the
/// names `names` lacks, which `names` then holds.  kBatch records and
/// kForward blocks whose name is names::kInvalidId (the interner's
/// table-full answer) are left out.
std::string encodeFrame(const Frame& frame, NameRefs& names);

/// The same as the first frame of its connection: every name the frame
/// references is declared in it.  A sender that keeps its connection
/// passes the connection's NameRefs instead.
std::string encodeFrame(const Frame& frame);

/// Incremental decoder for one connection: feed() arbitrary byte chunks,
/// then next() yields completed frames until it returns false.  It holds
/// the receiver's half of the connection's name table, so every frame of
/// the connection must pass through the same reader, in order.  Throws
/// ParseError on a malformed frame; the caller should drop the
/// connection.
class FrameReader {
 public:
  void feed(const char* data, std::size_t size);
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  /// Decodes the next complete frame into `out`; false when more bytes
  /// are needed.  Names are resolved to local ids: a name the interner
  /// refuses decodes as names::kInvalidId.
  bool next(Frame& out);

  /// Bytes buffered but not yet decoded.
  [[nodiscard]] std::size_t pendingBytes() const {
    return buffer_.size() - consumed_;
  }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  std::vector<names::Id> names_;  ///< by reference: the local id
};

/// Convenience for tests: decodes exactly one frame from `bytes`;
/// throws ParseError when bytes hold anything other than one frame.
Frame decodeFrame(const std::string& bytes);

}  // namespace zerosum::aggregator
