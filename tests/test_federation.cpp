// Federation (DESIGN.md §11): its wire frames, consistent-hash sharding,
// the catalog discovery service, the hop-by-hop Forwarder, the full
// in-process FederationTree, and ClusterJob's tree-topology mode.  The
// invariant under test throughout: windows are cumulative snapshots, so
// whatever a node daemon acked must be present at the root with at
// least the same count — across retransmits, membership changes, and a
// mid-run group crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "aggregator/catalog.hpp"
#include "aggregator/client.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/federation.hpp"
#include "aggregator/store.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "cluster/job.hpp"
#include "common/error.hpp"
#include "common/interning.hpp"
#include "common/monotime.hpp"
#include "topology/presets.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

CatalogEntry makeEntry(DaemonRole role, const std::string& name,
                       std::uint64_t generation = 1,
                       std::uint32_t shardLo = 0,
                       std::uint32_t shardHi = kShardSpace - 1) {
  CatalogEntry entry;
  entry.role = role;
  entry.name = name;
  entry.host = "127.0.0.1";
  entry.port = 7000;
  entry.shardLo = shardLo;
  entry.shardHi = shardHi;
  entry.generation = generation;
  return entry;
}

/// One forwarded window with its series key: the flattened form of a
/// kForward frame's series blocks that the tests below write and compare.
struct FlatWindow {
  std::string job;
  std::int32_t rank = 0;
  std::string metric;
  std::uint8_t resolution = 0;  ///< 0 = fine, 1 = coarse
  std::int64_t windowIndex = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  friend bool operator==(const FlatWindow&, const FlatWindow&) = default;
};

/// Series blocks holding `windows`: each run of consecutive windows of
/// one series becomes one block.
SeriesBlocks blocksOf(const std::vector<FlatWindow>& windows) {
  SeriesBlocks out;
  const FlatWindow* previous = nullptr;
  for (const FlatWindow& w : windows) {
    if (previous == nullptr || previous->job != w.job ||
        previous->rank != w.rank || previous->metric != w.metric) {
      out.open() = {w.job, w.rank, w.metric};
    }
    out.push({static_cast<Resolution>(w.resolution), w.windowIndex,
              Rollup{w.min, w.max, w.sum, w.count}});
    previous = &w;
  }
  return out;
}

/// Every window of `blocks`, in order, each with its block's key.
std::vector<FlatWindow> flatten(const SeriesBlocks& blocks) {
  std::vector<FlatWindow> out;
  for (const SeriesBlocks::Block& block : blocks.blocks()) {
    for (const WindowSnapshot& w : blocks.windows(block)) {
      out.push_back({std::string(block.key.jobName()), block.key.rank,
                     std::string(block.key.metricName()),
                     static_cast<std::uint8_t>(w.resolution), w.windowIndex,
                     w.rollup.min, w.rollup.max, w.rollup.sum,
                     w.rollup.count});
    }
  }
  return out;
}

/// Every retained *coarse* window of `key` in `child` must exist in
/// `parent` with at least the same count — the zero-acked-loss
/// check.  Coarse only: the fine plane is the degradable one (under
/// acked upstream pressure the forwarder withholds fine windows, the
/// hop-by-hop rung of the degradation ladder), so only coarse windows
/// carry the lossless contract.
void expectSeriesSubsumed(const RollupStore& child, const RollupStore& parent,
                          const SeriesKey& key) {
  constexpr Resolution res = Resolution::kCoarse;
  for (const auto& window : child.range(key, -1e12, 1e12, res)) {
    const auto held = parent.range(key, window.windowStartSeconds,
                                   window.windowStartSeconds, res);
    ASSERT_EQ(held.size(), 1U)
        << key.job << "/" << key.rank << "/" << key.metric << " window "
        << window.windowStartSeconds << " missing";
    EXPECT_GE(held[0].rollup.count, window.rollup.count);
  }
}

void expectSubsumed(const RollupStore& child, const RollupStore& parent) {
  for (const auto& key : child.keys()) {
    expectSeriesSubsumed(child, parent, key);
  }
}

}  // namespace

// --- wire frames -------------------------------------------------------------

TEST(FedWire, ForwardFrameRoundTrips) {
  Frame frame;
  frame.kind = FrameKind::kForward;
  frame.timeSeconds = 123.5;
  frame.batchSeq = 42;
  frame.origin = "node-3";
  frame.hopCount = 2;
  frame.rankLo = 8;
  frame.rankHi = 15;
  frame.forwardSources.push_back(
      {"simjob", 9, 16, "nid00009", 0, 1.25});
  frame.forwardSources.push_back(
      {"simjob", 10, 16, "nid00010", 1, 31.0});
  const std::vector<FlatWindow> windows = {
      {"simjob", 9, "hwt.0.user_pct", 0, 123, 1.0, 9.0, 15.0, 4},
      {"simjob", 9, "hwt.0.user_pct", 0, 124, 2.0, 2.0, 2.0, 1},
      {"simjob", 9, "hwt.0.user_pct", 1, 12, 1.0, 9.0, 17.0, 5},
      {"simjob", 10, "mem.rss", 1, 12, 5.0, 5.0, 5.0, 1},
      {"simjob", 10, "mem.rss", 1, 13, -4.5, 1e300, 0.25, 1ULL << 40},
  };
  frame.forwardSeries = blocksOf(windows);
  ASSERT_EQ(frame.forwardSeries.blocks().size(), 2U);

  const Frame decoded = decodeFrame(encodeFrame(frame));
  EXPECT_EQ(decoded.kind, FrameKind::kForward);
  EXPECT_DOUBLE_EQ(decoded.timeSeconds, 123.5);
  EXPECT_EQ(decoded.batchSeq, 42U);
  EXPECT_EQ(decoded.origin, "node-3");
  EXPECT_EQ(decoded.hopCount, 2);
  EXPECT_EQ(decoded.rankLo, 8);
  EXPECT_EQ(decoded.rankHi, 15);
  EXPECT_EQ(decoded.forwardSources, frame.forwardSources);
  EXPECT_EQ(decoded.forwardSeries.blocks().size(), 2U);
  EXPECT_EQ(flatten(decoded.forwardSeries), windows);
}

TEST(FedWire, CatalogFramesRoundTrip) {
  Frame announce;
  announce.kind = FrameKind::kCatalogAnnounce;
  announce.catalogEntry =
      makeEntry(DaemonRole::kGroup, "group-1", 7, 100, 4095);
  const Frame decodedAnnounce = decodeFrame(encodeFrame(announce));
  EXPECT_EQ(decodedAnnounce.kind, FrameKind::kCatalogAnnounce);
  EXPECT_EQ(decodedAnnounce.catalogEntry, announce.catalogEntry);

  Frame ack;
  ack.kind = FrameKind::kCatalogAck;
  ack.catalogEntry.generation = 7;
  ack.catalogTtlSeconds = 15.0;
  const Frame decodedAck = decodeFrame(encodeFrame(ack));
  EXPECT_EQ(decodedAck.kind, FrameKind::kCatalogAck);
  EXPECT_EQ(decodedAck.catalogEntry.generation, 7U);
  EXPECT_DOUBLE_EQ(decodedAck.catalogTtlSeconds, 15.0);
}

TEST(FedWire, DaemonRoleNamesRoundTrip) {
  for (const DaemonRole role :
       {DaemonRole::kNode, DaemonRole::kGroup, DaemonRole::kRoot}) {
    EXPECT_EQ(daemonRoleFromString(daemonRoleName(role)), role);
  }
  EXPECT_THROW(daemonRoleFromString("leaf"), ParseError);
}

// --- consistent-hash sharding ------------------------------------------------

TEST(FedRing, ShardOfSeriesIsStableAndInRange) {
  const SeriesKey key{"job", 3, "hwt.0.user_pct"};
  const std::uint32_t shard = shardOfSeries(key);
  EXPECT_EQ(shardOfSeries(key), shard);  // deterministic
  EXPECT_LT(shard, kShardSpace);
  // Different series spread: 64 keys should not collapse to one shard.
  std::set<std::uint32_t> shards;
  for (int r = 0; r < 64; ++r) {
    shards.insert(shardOfSeries({"job", r, "m"}));
  }
  EXPECT_GT(shards.size(), 32U);
}

TEST(FedRing, SingleEntryOwnsEveryShard) {
  const HashRing ring({makeEntry(DaemonRole::kGroup, "g0")});
  for (std::uint32_t shard : {0U, 1U, 777U, kShardSpace - 1}) {
    const CatalogEntry* owner = ring.route(shard);
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->name, "g0");
  }
  EXPECT_EQ(HashRing().route(0), nullptr);
}

TEST(FedRing, RouteRespectsShardRanges) {
  const std::uint32_t mid = kShardSpace / 2;
  const HashRing ring({
      makeEntry(DaemonRole::kGroup, "low", 1, 0, mid - 1),
      makeEntry(DaemonRole::kGroup, "high", 1, mid, kShardSpace - 1),
  });
  for (std::uint32_t shard = 0; shard < kShardSpace; shard += 997) {
    const CatalogEntry* owner = ring.route(shard);
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->name, shard < mid ? "low" : "high");
  }
}

TEST(FedRing, MembershipChangeMovesOnlyOrphanedShards) {
  std::vector<CatalogEntry> entries;
  for (int g = 0; g < 4; ++g) {
    entries.push_back(
        makeEntry(DaemonRole::kGroup, "g" + std::to_string(g)));
  }
  const HashRing before(entries);
  std::map<std::uint32_t, std::string> owner;
  for (std::uint32_t shard = 0; shard < kShardSpace; shard += 131) {
    owner[shard] = before.route(shard)->name;
  }
  entries.erase(entries.begin() + 1);  // g1 dies
  const HashRing after(entries);
  for (const auto& [shard, name] : owner) {
    const CatalogEntry* now = after.route(shard);
    ASSERT_NE(now, nullptr);
    if (name != "g1") {
      EXPECT_EQ(now->name, name)  // survivors keep their shards
          << "shard " << shard << " moved from live owner";
    } else {
      EXPECT_NE(now->name, "g1");
    }
  }
}

TEST(FedRing, SameMembershipDetectsGenerationChanges) {
  const std::vector<CatalogEntry> set = {
      makeEntry(DaemonRole::kGroup, "g0", 1),
      makeEntry(DaemonRole::kGroup, "g1", 1),
  };
  const HashRing ring(set);
  EXPECT_TRUE(ring.sameMembership(set));
  auto restarted = set;
  restarted[1].generation = 2;  // same name, new incarnation
  EXPECT_FALSE(ring.sameMembership(restarted));
  EXPECT_FALSE(ring.sameMembership({set[0]}));
}

TEST(FedRing, SameMembershipIgnoresOrderButNotFieldsOrRepeats) {
  const std::vector<CatalogEntry> set = {
      makeEntry(DaemonRole::kGroup, "g0", 1),
      makeEntry(DaemonRole::kGroup, "g1", 1, 0, 999),
      makeEntry(DaemonRole::kGroup, "g2", 3),
  };
  const HashRing ring(set);
  // The same set in another order.
  EXPECT_TRUE(ring.sameMembership({set[2], set[0], set[1]}));
  EXPECT_TRUE(ring.sameMembership({set[1], set[2], set[0]}));

  // One field of one entry changed.
  auto changed = set;
  changed[2].generation = 4;
  EXPECT_FALSE(ring.sameMembership(changed));
  changed = set;
  changed[1].shardHi = 1000;
  EXPECT_FALSE(ring.sameMembership(changed));
  changed = set;
  changed[0].port = 7001;
  EXPECT_FALSE(ring.sameMembership(changed));

  // A repeated name: each entry must pair with a distinct ring entry.
  const std::vector<CatalogEntry> repeated = {
      makeEntry(DaemonRole::kGroup, "g0", 1),
      makeEntry(DaemonRole::kGroup, "g0", 2),
  };
  const HashRing twice(repeated);
  EXPECT_TRUE(twice.sameMembership({repeated[1], repeated[0]}));
  EXPECT_FALSE(twice.sameMembership({repeated[0], repeated[0]}));
  EXPECT_FALSE(twice.sameMembership({repeated[1], repeated[1]}));
  EXPECT_FALSE(HashRing({repeated[0], repeated[0]})
                   .sameMembership({repeated[0], repeated[1]}));
}

// --- catalog -----------------------------------------------------------------

TEST(FedCatalog, AssignsGenerationsAndDetectsRestarts) {
  Catalog catalog;
  CatalogEntry entry = makeEntry(DaemonRole::kNode, "n0", 0);
  // Generation 0 asks the catalog to assign the incarnation number.
  auto result = catalog.announce(entry, 0.0);
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.generation, 1U);
  EXPECT_DOUBLE_EQ(result.ttlSeconds, catalog.options().ttlSeconds);

  entry.generation = 1;  // refresh from the same incarnation
  EXPECT_TRUE(catalog.announce(entry, 1.0).accepted);
  EXPECT_EQ(catalog.counters().generationBumps, 0U);

  entry.generation = 2;  // restart
  EXPECT_TRUE(catalog.announce(entry, 2.0).accepted);
  EXPECT_EQ(catalog.counters().generationBumps, 1U);

  entry.generation = 1;  // ghost of the previous life
  EXPECT_FALSE(catalog.announce(entry, 3.0).accepted);
  EXPECT_EQ(catalog.counters().staleRejected, 1U);
  EXPECT_EQ(catalog.find("n0", 3.0)->generation, 2U);
}

TEST(FedCatalog, EntriesExpireWithoutRefreshAndCanReRegister) {
  Catalog catalog({/*ttlSeconds=*/10.0});
  catalog.announce(makeEntry(DaemonRole::kNode, "n0", 0), 0.0);
  EXPECT_EQ(catalog.entries(9.0).size(), 1U);
  // Past the deadline the read path omits the entry even before the
  // owner's expire() sweep removes it.
  EXPECT_TRUE(catalog.entries(11.0).empty());
  EXPECT_EQ(catalog.size(), 1U);
  EXPECT_EQ(catalog.expire(11.0), 1U);
  EXPECT_EQ(catalog.size(), 0U);
  EXPECT_EQ(catalog.counters().expired, 1U);
  // Re-registration after expiry is a fresh record.
  EXPECT_TRUE(catalog.announce(makeEntry(DaemonRole::kNode, "n0", 0), 12.0)
                  .accepted);
  EXPECT_EQ(catalog.counters().registrations, 2U);
  EXPECT_EQ(catalog.entries(12.0).size(), 1U);
}

TEST(FedCatalog, EntriesByRoleFiltersAndSorts) {
  Catalog catalog;
  catalog.announce(makeEntry(DaemonRole::kGroup, "g1"), 0.0);
  catalog.announce(makeEntry(DaemonRole::kNode, "n0"), 0.0);
  catalog.announce(makeEntry(DaemonRole::kGroup, "g0"), 0.0);
  const auto groups = catalog.entriesByRole(DaemonRole::kGroup, 1.0);
  ASSERT_EQ(groups.size(), 2U);
  EXPECT_EQ(groups[0].name, "g0");
  EXPECT_EQ(groups[1].name, "g1");
  EXPECT_TRUE(catalog.entriesByRole(DaemonRole::kRoot, 1.0).empty());
}

TEST(FedCatalog, JsonRoundTrips) {
  Catalog catalog;
  catalog.announce(makeEntry(DaemonRole::kGroup, "g0", 3, 0, 1000), 0.0);
  catalog.announce(makeEntry(DaemonRole::kRoot, "root", 1), 0.0);
  const auto parsed = Catalog::parseJson(catalog.toJson(1.0));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2U);
  EXPECT_EQ((*parsed)[0].name, "g0");
  EXPECT_EQ((*parsed)[0].role, DaemonRole::kGroup);
  EXPECT_EQ((*parsed)[0].shardHi, 1000U);
  EXPECT_EQ((*parsed)[0].generation, 3U);
  EXPECT_EQ((*parsed)[1].name, "root");
  EXPECT_FALSE(Catalog::parseJson("not json").has_value());
}

TEST(FedCatalog, ResolvesOverTheWire) {
  PipeHub hub;
  Aggregator root(hub.makeServer());
  Catalog catalog;
  root.attachCatalog(&catalog);
  catalog.announce(makeEntry(DaemonRole::kNode, "n0", 0), 0.0);
  catalog.announce(makeEntry(DaemonRole::kGroup, "g0", 0), 0.0);

  auto transport = hub.makeClientTransport();
  double t = 1.0;
  const auto entries =
      resolveCatalog(*transport, [&] { root.poll(t += 0.01); }, 100);
  ASSERT_TRUE(entries.has_value());
  ASSERT_EQ(entries->size(), 2U);
  EXPECT_EQ((*entries)[0].name, "g0");
  EXPECT_EQ((*entries)[1].name, "n0");
}

TEST(FedAnnouncer, RegistersAndAdoptsTheGrantedGeneration) {
  PipeHub hub;
  Aggregator root(hub.makeServer());
  Catalog catalog;
  root.attachCatalog(&catalog);

  AnnouncerOptions options;
  options.intervalSeconds = 1.0;
  CatalogAnnouncer announcer(hub.makeClientTransport(),
                             makeEntry(DaemonRole::kNode, "n0", 0), options);
  announcer.pump(0.0);  // first announce (generation 0 = assign me one)
  root.poll(0.1);
  announcer.pump(0.2);  // reads the ack, adopts the generation
  EXPECT_EQ(announcer.generation(), 1U);
  EXPECT_GE(announcer.counters().acksReceived, 1U);
  ASSERT_TRUE(catalog.find("n0", 0.5).has_value());

  announcer.pump(0.5);  // inside the interval: no re-announce yet
  const auto sent = announcer.counters().announcesSent;
  announcer.pump(1.3);  // past it: refresh
  EXPECT_EQ(announcer.counters().announcesSent, sent + 1);
  root.poll(1.4);
  EXPECT_GE(catalog.counters().announces, 2U);
  EXPECT_EQ(catalog.counters().generationBumps, 0U);  // refresh, not restart
}

// --- daemon: forward ingest + clock clamp ------------------------------------

TEST(FedDaemon, ForwardFramesIngestIdempotentlyAndCountHops) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  auto transport = hub.makeClientTransport();
  ASSERT_TRUE(transport->connect());
  NameRefs names;  // the connection's name table

  Frame frame;
  frame.kind = FrameKind::kForward;
  frame.timeSeconds = 5.0;
  frame.batchSeq = 1;
  frame.origin = "node-0";
  frame.hopCount = 2;
  frame.forwardSources.push_back({"job", 3, 8, "nid3", 0, 0.5});
  frame.forwardSeries = blocksOf({{"job", 3, "m", 0, 5, 1.0, 3.0, 4.0, 2}});
  ASSERT_TRUE(transport->send(encodeFrame(frame, names)));
  daemon.poll(5.0);

  EXPECT_EQ(daemon.counters().forwardFrames, 1U);
  EXPECT_EQ(daemon.counters().forwardWindows, 1U);
  const SeriesKey key{"job", 3, "m"};
  auto window = daemon.store().latest(key);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->rollup.count, 2U);
  const auto byHop = daemon.sourcesByHop();
  ASSERT_TRUE(byHop.count(2));
  EXPECT_EQ(byHop.at(2), 1U);

  // A retransmit of the same cumulative snapshot is a conflict, not a
  // double-count; a newer snapshot (higher count) replaces.
  frame.batchSeq = 2;
  ASSERT_TRUE(transport->send(encodeFrame(frame, names)));
  daemon.poll(5.1);
  EXPECT_EQ(daemon.counters().forwardConflicts, 1U);
  EXPECT_EQ(daemon.store().latest(key)->rollup.count, 2U);

  frame.batchSeq = 3;
  frame.forwardSeries = blocksOf({{"job", 3, "m", 0, 5, 1.0, 9.0, 13.0, 3}});
  ASSERT_TRUE(transport->send(encodeFrame(frame, names)));
  daemon.poll(5.2);
  EXPECT_EQ(daemon.store().latest(key)->rollup.count, 3U);
  EXPECT_DOUBLE_EQ(daemon.store().latest(key)->rollup.max, 9.0);
}

TEST(FedDaemon, InterleavedForwardRunsApplyEachWindowByItsOwnRules) {
  // One frame whose blocks interleave two series (A fine and coarse, B
  // fine, A fine again: three blocks, A's key twice), with hostile and
  // out-of-horizon windows inside A's blocks.  DESIGN.md §11's rules
  // apply per window, whatever block a window rides in: hostile or
  // beyond-horizon windows are rejected, a
  // snapshot replaces the stored one only with a higher count, and every
  // rejected window counts as a merge conflict.
  StoreOptions storeOptions;
  storeOptions.fineRetentionWindows = 4;
  storeOptions.coarseRetentionWindows = 4;
  PipeHub hub;
  Aggregator daemon(hub.makeServer(), storeOptions);
  auto transport = hub.makeClientTransport();
  ASSERT_TRUE(transport->connect());
  NameRefs names;  // the connection's name table

  const double nan = std::numeric_limits<double>::quiet_NaN();
  Frame frame;
  frame.kind = FrameKind::kForward;
  frame.timeSeconds = 20.0;
  frame.batchSeq = 1;
  frame.origin = "node-0";
  frame.hopCount = 1;
  frame.forwardSeries = blocksOf({
      // A's first block.
      {"job", 0, "a", 0, 10, 1.0, 3.0, 4.0, 2},   // applied: new window
      {"job", 0, "a", 0, 11, 0.0, 0.0, 0.0, 0},   // count 0: rejected
      {"job", 0, "a", 0, 12, 2.0, 2.0, nan, 1},   // NaN sum: rejected
      {"job", 0, "a", 1, 1, 1.0, 3.0, 4.0, 2},    // applied: coarse plane
      {"job", 0, "a", 1, -1, 1.0, 1.0, 1.0, 1},   // negative index: rejected
      // B's block.
      {"job", 1, "a", 0, 10, 5.0, 5.0, 5.0, 1},   // applied: new series
      // A's second block.  Once window 13 lands, the fine horizon keeps
      // indices >= 13 - 4 + 1 = 10.
      {"job", 0, "a", 0, 13, 7.0, 7.0, 7.0, 1},   // applied
      {"job", 0, "a", 0, 6, 1.0, 1.0, 1.0, 9},    // beyond horizon: rejected
      {"job", 0, "a", 0, 10, 0.5, 9.0, 20.0, 5},  // count 5 > 2: replaces
      {"job", 0, "a", 0, 13, 7.0, 7.0, 7.0, 1},   // count 1 = 1: conflict
  });
  ASSERT_EQ(frame.forwardSeries.blocks().size(), 3U);
  ASSERT_TRUE(transport->send(encodeFrame(frame, names)));
  daemon.poll(20.0);
  EXPECT_EQ(daemon.counters().forwardWindows, 5U);
  EXPECT_EQ(daemon.counters().forwardConflicts, 5U);

  // The retransmit applies nothing: every admissible window is now a
  // not-newer snapshot, so all ten are conflicts.
  frame.batchSeq = 2;
  ASSERT_TRUE(transport->send(encodeFrame(frame, names)));
  daemon.poll(20.1);
  EXPECT_EQ(daemon.counters().forwardWindows, 5U);
  EXPECT_EQ(daemon.counters().forwardConflicts, 15U);

  struct Expected {
    double start;
    Rollup rollup;
  };
  const auto expectWindows = [&](const SeriesKey& key, Resolution res,
                                 const std::vector<Expected>& expected) {
    const auto stored = daemon.store().range(key, -1e12, 1e12, res);
    ASSERT_EQ(stored.size(), expected.size()) << key.rank << key.metric;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(stored[i].windowStartSeconds, expected[i].start);
      EXPECT_EQ(stored[i].rollup.min, expected[i].rollup.min);
      EXPECT_EQ(stored[i].rollup.max, expected[i].rollup.max);
      EXPECT_EQ(stored[i].rollup.sum, expected[i].rollup.sum);
      EXPECT_EQ(stored[i].rollup.count, expected[i].rollup.count);
    }
  };
  const SeriesKey a{"job", 0, "a"};
  const SeriesKey b{"job", 1, "a"};
  expectWindows(a, Resolution::kFine,
                {{10.0, {0.5, 9.0, 20.0, 5}}, {13.0, {7.0, 7.0, 7.0, 1}}});
  expectWindows(a, Resolution::kCoarse, {{10.0, {1.0, 3.0, 4.0, 2}}});
  expectWindows(b, Resolution::kFine, {{10.0, {5.0, 5.0, 5.0, 1}}});
  expectWindows(b, Resolution::kCoarse, {});
  EXPECT_EQ(daemon.store().samplesIngested(), 5U);
}

TEST(FedDaemon, PollClampsBackwardClockSteps) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  auto transport = hub.makeClientTransport();
  ASSERT_TRUE(transport->connect());
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.hello.job = "job";
  hello.hello.rank = 0;
  hello.hello.worldSize = 1;
  ASSERT_TRUE(transport->send(encodeFrame(hello)));
  Frame batch;
  batch.kind = FrameKind::kBatch;
  batch.timeSeconds = 100.0;
  batch.batchSeq = 1;
  batch.records.push_back({100.0, names::intern("m"), 1.0});
  ASSERT_TRUE(transport->send(encodeFrame(batch)));
  daemon.poll(100.0);
  ASSERT_EQ(daemon.store().seriesCount(), 1U);

  // An NTP-style wall-clock step backwards must neither run liveness
  // deadlines on the stepped clock nor mass-evict sources.
  daemon.poll(10.0);
  EXPECT_EQ(daemon.counters().clockRegressions, 1U);
  EXPECT_DOUBLE_EQ(daemon.lastPollSeconds(), 100.0);
  EXPECT_EQ(daemon.counters().sourcesEvicted, 0U);
  EXPECT_EQ(daemon.store().seriesCount(), 1U);
}

TEST(FedMonotime, MonotonicClockNeverDecreases) {
  double last = monotonicSeconds();
  for (int i = 0; i < 1000; ++i) {
    const double now = monotonicSeconds();
    EXPECT_GE(now, last);
    last = now;
  }
}

// --- forwarder ---------------------------------------------------------------

TEST(FedForwarder, ShipsDirtyWindowsAndResyncsOnMembershipChange) {
  PipeHub localHub;
  PipeHub parentHub;
  Aggregator local(localHub.makeServer());
  Aggregator parent(parentHub.makeServer());
  ForwarderOptions options;
  options.origin = "node-0";
  options.hopCount = 1;
  Forwarder forwarder(
      local, [&](const CatalogEntry&) { return parentHub.makeClientTransport(); },
      options);

  // Feed the local daemon through its real ingest path so it also has
  // sources to propagate (hop counting at the parent needs them).
  std::vector<std::unique_ptr<Transport>> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.push_back(localHub.makeClientTransport());
    ASSERT_TRUE(ranks.back()->connect());
    Frame hello;
    hello.kind = FrameKind::kHello;
    hello.hello.job = "job";
    hello.hello.rank = r;
    hello.hello.worldSize = 2;
    ASSERT_TRUE(ranks.back()->send(encodeFrame(hello)));
    Frame batch;
    batch.kind = FrameKind::kBatch;
    batch.timeSeconds = 1.5;
    batch.batchSeq = 1;
    batch.records.push_back({1.5, names::intern("m"), 10.0 * (r + 1)});
    ASSERT_TRUE(ranks.back()->send(encodeFrame(batch)));
  }
  local.poll(1.6);
  EXPECT_GT(local.store().dirtyCount(), 0U);

  forwarder.setUpstreams({makeEntry(DaemonRole::kGroup, "g0", 1)}, 2.0);
  EXPECT_EQ(forwarder.counters().membershipChanges, 1U);
  for (double t = 2.0; t < 3.0 && !forwarder.quiesced(); t += 0.1) {
    forwarder.pump(t);
    parent.poll(t);
  }
  EXPECT_TRUE(forwarder.quiesced());
  EXPECT_GT(forwarder.counters().framesForwarded, 0U);
  expectSubsumed(local.store(), parent.store());
  EXPECT_EQ(parent.sourcesByHop().count(1), 1U);

  // The upstream restarts (same name, new generation): full resync —
  // every retained window replays, idempotently.
  const auto resyncsBefore = forwarder.counters().resyncs;
  forwarder.setUpstreams({makeEntry(DaemonRole::kGroup, "g0", 2)}, 4.0);
  EXPECT_EQ(forwarder.counters().membershipChanges, 2U);
  EXPECT_EQ(forwarder.counters().resyncs, resyncsBefore + 1);
  for (double t = 4.0; t < 5.0 && !forwarder.quiesced(); t += 0.1) {
    forwarder.pump(t);
    parent.poll(t);
  }
  EXPECT_TRUE(forwarder.quiesced());
  EXPECT_GT(parent.counters().forwardConflicts, 0U);  // replays, no double count
  expectSubsumed(local.store(), parent.store());
}

TEST(FedForwarder, WindowsWithNoShardOwnerAreCountedUnroutable) {
  PipeHub localHub;
  PipeHub parentHub;
  Aggregator local(localHub.makeServer());
  ForwarderOptions options;
  Forwarder forwarder(
      local, [&](const CatalogEntry&) { return parentHub.makeClientTransport(); },
      options);
  const SeriesKey key{"job", 0, "m"};
  const std::uint32_t shard = shardOfSeries(key);
  // The only upstream serves a single shard that is not ours.
  const std::uint32_t other = (shard + 1) % kShardSpace;
  forwarder.setUpstreams(
      {makeEntry(DaemonRole::kGroup, "g0", 1, other, other)}, 0.0);
  local.mutableStore().ingest(key, 1.5, 10.0);
  forwarder.pump(2.0);
  EXPECT_GT(forwarder.counters().windowsUnroutable, 0U);
}

namespace {

/// The upstream end of a forwarder link, played by hand: a bare server
/// that collects the kForward frames sent to it and acks on demand.
struct UpstreamProbe {
  PipeHub hub;
  std::unique_ptr<TransportServer> server = hub.makeServer();
  std::uint64_t connection = 0;
  FrameReader reader;
  std::vector<Frame> frames;  ///< every kForward frame received, in order

  Forwarder::TransportFactory factory() {
    return [this](const CatalogEntry&) { return hub.makeClientTransport(); };
  }

  void poll() {
    for (const Delivery& delivery : server->poll()) {
      connection = delivery.connection;
      reader.feed(delivery.bytes);
      Frame frame;
      while (reader.next(frame)) {
        if (frame.kind == FrameKind::kForward) {
          frames.push_back(frame);
        }
      }
    }
  }

  bool ack(std::uint64_t batchSeq, PressureLevel pressure) {
    Frame ack;
    ack.kind = FrameKind::kBatchAck;
    ack.batchSeq = batchSeq;
    ack.pressure = pressure;
    return server->send(connection, encodeFrame(ack));
  }
};

}  // namespace

TEST(FedForwarder, SeriesStraddlingAFrameArrivesWholeAndInOrder) {
  PipeHub localHub;
  Aggregator local(localHub.makeServer());
  UpstreamProbe upstream;
  ForwarderOptions options;
  options.maxWindowsPerFrame = 4;
  Forwarder forwarder(local, upstream.factory(), options);
  forwarder.setUpstreams({makeEntry(DaemonRole::kGroup, "g0", 1)}, 0.0);

  // Series a: fine 0-1 + coarse 0; series b: fine 0-4 + coarse 0.
  const SeriesKey a{"job", 0, "a"};
  const SeriesKey b{"job", 0, "b"};
  for (int t = 0; t < 2; ++t) {
    local.mutableStore().ingest(a, t + 0.5, 1.0);
  }
  for (int t = 0; t < 5; ++t) {
    local.mutableStore().ingest(b, t + 0.5, 2.0 * t);
  }
  forwarder.pump(1.0);
  upstream.poll();

  // Nine windows through 4-window frames: b straddles all three.
  ASSERT_EQ(upstream.frames.size(), 3U);
  std::vector<FlatWindow> received;
  for (std::size_t i = 0; i < upstream.frames.size(); ++i) {
    const Frame& frame = upstream.frames[i];
    EXPECT_EQ(frame.batchSeq, i + 1);
    EXPECT_EQ(frame.forwardSeries.windowCount(), i < 2 ? 4U : 1U);
    // One block per series in the frame: a, then b's first windows; the
    // later frames continue b in their one block.
    EXPECT_EQ(frame.forwardSeries.blocks().size(), i == 0 ? 2U : 1U);
    const auto windows = flatten(frame.forwardSeries);
    received.insert(received.end(), windows.begin(), windows.end());
  }
  // Key order, then (resolution, index) order within each series.
  const std::vector<FlatWindow> expected = {
      {"job", 0, "a", 0, 0, 1.0, 1.0, 1.0, 1},
      {"job", 0, "a", 0, 1, 1.0, 1.0, 1.0, 1},
      {"job", 0, "a", 1, 0, 1.0, 1.0, 2.0, 2},
      {"job", 0, "b", 0, 0, 0.0, 0.0, 0.0, 1},
      {"job", 0, "b", 0, 1, 2.0, 2.0, 2.0, 1},
      {"job", 0, "b", 0, 2, 4.0, 4.0, 4.0, 1},
      {"job", 0, "b", 0, 3, 6.0, 6.0, 6.0, 1},
      {"job", 0, "b", 0, 4, 8.0, 8.0, 8.0, 1},
      {"job", 0, "b", 1, 0, 0.0, 8.0, 20.0, 5},
  };
  EXPECT_EQ(received, expected);
  EXPECT_EQ(forwarder.counters().windowsForwarded, 9U);
  EXPECT_EQ(forwarder.pendingWindows(), 0U);
}

TEST(FedForwarder, WindowsQueuedBehindMaxInflightSendOnceWithTheNewestCount) {
  PipeHub localHub;
  Aggregator local(localHub.makeServer());
  UpstreamProbe upstream;
  ForwarderOptions options;
  options.maxInflight = 1;
  Forwarder forwarder(local, upstream.factory(), options);
  forwarder.setUpstreams({makeEntry(DaemonRole::kGroup, "g0", 1)}, 0.0);

  const SeriesKey key{"job", 0, "m"};
  local.mutableStore().ingest(key, 5.5, 1.0);
  forwarder.pump(6.0);
  upstream.poll();
  ASSERT_EQ(upstream.frames.size(), 1U);
  EXPECT_EQ(forwarder.inflightFrames(), 1U);

  // Window 5 (and its coarse window) dirtied twice more while the only
  // inflight slot stays unacked: queued, not sent, replaced in place.
  local.mutableStore().ingest(key, 5.6, 2.0);
  forwarder.pump(6.1);
  local.mutableStore().ingest(key, 5.7, 3.0);
  forwarder.pump(6.2);
  upstream.poll();
  EXPECT_EQ(upstream.frames.size(), 1U);
  EXPECT_EQ(forwarder.pendingWindows(), 2U);

  ASSERT_TRUE(upstream.ack(1, PressureLevel::kOk));
  forwarder.pump(6.3);
  upstream.poll();
  ASSERT_EQ(upstream.frames.size(), 2U);
  const std::vector<FlatWindow> expected = {
      {"job", 0, "m", 0, 5, 1.0, 3.0, 6.0, 3},
      {"job", 0, "m", 1, 0, 1.0, 3.0, 6.0, 3},
  };
  EXPECT_EQ(flatten(upstream.frames[1].forwardSeries), expected);
  EXPECT_EQ(forwarder.pendingWindows(), 0U);

  // Sent once: nothing follows once the second frame is acked too.
  ASSERT_TRUE(upstream.ack(2, PressureLevel::kOk));
  forwarder.pump(6.4);
  upstream.poll();
  EXPECT_EQ(upstream.frames.size(), 2U);
  EXPECT_EQ(forwarder.counters().windowsForwarded, 4U);
  EXPECT_TRUE(forwarder.quiesced());
}

TEST(FedForwarder, ElevatedPressureWithholdsFineWindowsAndSendsCoarse) {
  PipeHub localHub;
  Aggregator local(localHub.makeServer());
  UpstreamProbe upstream;
  Forwarder forwarder(local, upstream.factory());
  forwarder.setUpstreams({makeEntry(DaemonRole::kGroup, "g0", 1)}, 0.0);

  const SeriesKey key{"job", 0, "m"};
  local.mutableStore().ingest(key, 1.5, 1.0);
  forwarder.pump(2.0);
  upstream.poll();
  ASSERT_EQ(upstream.frames.size(), 1U);
  ASSERT_TRUE(upstream.ack(1, PressureLevel::kElevated));

  // Two new fine windows and the coarse window they fold into.
  local.mutableStore().ingest(key, 2.5, 2.0);
  local.mutableStore().ingest(key, 3.5, 3.0);
  forwarder.pump(2.1);
  upstream.poll();
  EXPECT_EQ(forwarder.upstreamPressure(2.1), PressureLevel::kElevated);
  ASSERT_EQ(upstream.frames.size(), 2U);
  const std::vector<FlatWindow> expected = {
      {"job", 0, "m", 1, 0, 1.0, 3.0, 6.0, 3},
  };
  EXPECT_EQ(flatten(upstream.frames[1].forwardSeries), expected);
  EXPECT_EQ(forwarder.counters().windowsSuppressed, 2U);
  EXPECT_EQ(forwarder.counters().coarseOnlyFrames, 1U);
  EXPECT_EQ(forwarder.pendingWindows(), 0U);
}

TEST(FedForwarder, ASeriesWhoseWindowsAreAllWithheldSendsNoBlock) {
  PipeHub localHub;
  Aggregator local(localHub.makeServer());
  UpstreamProbe upstream;
  Forwarder forwarder(local, upstream.factory());
  forwarder.setUpstreams({makeEntry(DaemonRole::kGroup, "g0", 1)}, 0.0);

  const SeriesKey key{"job", 0, "m"};
  local.mutableStore().ingest(key, 1.5, 1.0);
  forwarder.pump(2.0);
  upstream.poll();
  ASSERT_EQ(upstream.frames.size(), 1U);
  ASSERT_TRUE(upstream.ack(1, PressureLevel::kElevated));

  // A forwarded window marks only itself dirty, so series "a" queues one
  // fine window and nothing else; elevated pressure withholds it.
  const SeriesKey fineOnly{"job", 0, "a"};
  ASSERT_TRUE(local.mutableStore().ingestWindow(fineOnly, Resolution::kFine,
                                                2, Rollup{1.0, 1.0, 1.0, 1}));
  local.mutableStore().ingest(key, 2.5, 2.0);
  forwarder.pump(2.1);
  upstream.poll();
  ASSERT_EQ(upstream.frames.size(), 2U);
  const SeriesBlocks& sent = upstream.frames[1].forwardSeries;
  ASSERT_EQ(sent.blocks().size(), 1U);
  EXPECT_EQ(sent.blocks()[0].key, key);
  const std::vector<FlatWindow> expected = {
      {"job", 0, "m", 1, 0, 1.0, 2.0, 3.0, 2},
  };
  EXPECT_EQ(flatten(sent), expected);
  EXPECT_EQ(forwarder.counters().windowsSuppressed, 2U);
}

namespace {

/// The outage scenario: 100 series, one record per series per second,
/// 60 fine and 36 coarse windows retained (9 600 windows once full).
constexpr int kOutageSeries = 100;

StoreOptions outageStoreOptions() {
  StoreOptions options;
  options.fineRetentionWindows = 60;
  options.coarseRetentionWindows = 36;
  return options;
}

void ingestOutageSecond(Aggregator& node, int second) {
  for (int s = 0; s < kOutageSeries; ++s) {
    node.mutableStore().ingest({"job", s, "m"}, second + 0.5, s + second);
  }
}

std::size_t retainedWindows(const RollupStore& store) {
  std::size_t total = 0;
  for (const auto& key : store.keys()) {
    for (const Resolution res : {Resolution::kFine, Resolution::kCoarse}) {
      total += store.range(key, -1e12, 1e12, res).size();
    }
  }
  return total;
}

/// Every window `node` retains is in `upstream` with the same rollup.
void expectHoldsEveryWindow(const RollupStore& node,
                            const RollupStore& upstream) {
  for (const auto& key : node.keys()) {
    for (const Resolution res : {Resolution::kFine, Resolution::kCoarse}) {
      for (const auto& window : node.range(key, -1e12, 1e12, res)) {
        const auto held = upstream.range(key, window.windowStartSeconds,
                                         window.windowStartSeconds, res);
        ASSERT_EQ(held.size(), 1U)
            << key.rank << " window " << window.windowStartSeconds;
        EXPECT_EQ(held[0].rollup.count, window.rollup.count);
        EXPECT_EQ(held[0].rollup.sum, window.rollup.sum);
      }
    }
  }
}

/// Pumps `forwarder` and polls `upstream` until the forwarder quiesces.
double pumpUntilQuiesced(Forwarder& forwarder, Aggregator& upstream,
                         double t) {
  for (int round = 0; round < 200 && !forwarder.quiesced(); ++round) {
    t += 0.25;
    forwarder.pump(t);
    upstream.poll(t);
  }
  EXPECT_TRUE(forwarder.quiesced());
  return t;
}

}  // namespace

TEST(FedForwarder, UpstreamOutageQueueStaysWithinRetainedWindows) {
  PipeHub nodeHub;
  PipeHub upstreamHub;
  Aggregator node(nodeHub.makeServer(), outageStoreOptions());
  Aggregator upstream(upstreamHub.makeServer(), outageStoreOptions());
  Forwarder forwarder(node, [&](const CatalogEntry&) {
    return upstreamHub.makeClientTransport();
  });
  forwarder.setUpstreams({makeEntry(DaemonRole::kGroup, "g0", 1)}, 0.0);
  ingestOutageSecond(node, 0);
  forwarder.pump(0.9);
  upstream.poll(0.9);
  ASSERT_EQ(forwarder.pendingWindows(), 0U);

  // The upstream goes away for 3 000 s while the node keeps ingesting and
  // draining: the queue must stay bounded by what the store retains.
  upstreamHub.setDown(true);
  for (int second = 1; second <= 3000; ++second) {
    ingestOutageSecond(node, second);
    forwarder.pump(second + 0.9);
    if (second % 1000 == 0) {
      const std::size_t retained = retainedWindows(node.store());
      EXPECT_EQ(retained, kOutageSeries * (60U + 36U));
      EXPECT_LE(forwarder.pendingWindows(), retained) << "at " << second;
    }
  }
  EXPECT_EQ(forwarder.counters().framesForwarded, 1U);

  // Back again: the reconnect resyncs every retained window.
  upstreamHub.setDown(false);
  pumpUntilQuiesced(forwarder, upstream, 3001.0);
  EXPECT_GT(forwarder.counters().reconnects, 0U);
  expectHoldsEveryWindow(node.store(), upstream.store());
}

TEST(FedForwarder, DirtyMarksWithNoUpstreamStayWithinRetainedWindows) {
  PipeHub nodeHub;
  PipeHub upstreamHub;
  Aggregator node(nodeHub.makeServer(), outageStoreOptions());
  Aggregator upstream(upstreamHub.makeServer(), outageStoreOptions());
  Forwarder forwarder(node, [&](const CatalogEntry&) {
    return upstreamHub.makeClientTransport();
  });

  // No upstream is known yet: every window stays marked in the store.
  for (int second = 0; second <= 3000; ++second) {
    ingestOutageSecond(node, second);
    forwarder.pump(second + 0.9);
    if (second > 0 && second % 1000 == 0) {
      EXPECT_LE(node.store().dirtyCount(), retainedWindows(node.store()))
          << "at " << second;
    }
  }

  // An upstream appears: the membership change resyncs everything.
  forwarder.setUpstreams({makeEntry(DaemonRole::kGroup, "g0", 1)}, 3001.0);
  pumpUntilQuiesced(forwarder, upstream, 3001.0);
  expectHoldsEveryWindow(node.store(), upstream.store());
}

// --- federation tree ---------------------------------------------------------

namespace {

/// Publishes `periods` one-record-per-metric periods from `ranks`
/// clients into the tree's node daemons, stepping the tree each period.
/// Returns the final virtual clock.
double publishThroughTree(FederationTree& tree,
                          std::vector<std::unique_ptr<Client>>& clients,
                          int periods, double t0) {
  const auto metric = names::intern("fed.metric");
  double t = t0;
  for (int period = 0; period < periods; ++period, t += 1.0) {
    for (std::size_t r = 0; r < clients.size(); ++r) {
      clients[r]->enqueueIds(
          {{t, metric, static_cast<double>(r) + t}}, t);
      clients[r]->pump(t);
    }
    tree.step(t);
  }
  return t;
}

/// One client per rank, flushing every `batchRecords` records into
/// `transportFor(rank)`.
template <typename TransportFor>
std::vector<std::unique_ptr<Client>> makeClients(int ranks,
                                                 std::size_t batchRecords,
                                                 TransportFor transportFor) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int r = 0; r < ranks; ++r) {
    Hello hello;
    hello.job = "fed";
    hello.rank = r;
    hello.worldSize = ranks;
    hello.hostname = "nid" + std::to_string(r);
    ClientOptions options;
    options.batchRecords = batchRecords;
    clients.push_back(
        std::make_unique<Client>(transportFor(r), hello, options));
  }
  return clients;
}

/// Ranks spread round-robin over the tree's node daemons.
std::vector<std::unique_ptr<Client>> makeTreeClients(
    FederationTree& tree, int ranks, std::size_t batchRecords = 1) {
  const int daemons = tree.groups() * tree.nodesPerGroup();
  return makeClients(ranks, batchRecords, [&tree, daemons](int r) {
    const int d = r % daemons;
    return tree.makeNodeTransport(d / tree.nodesPerGroup(),
                                  d % tree.nodesPerGroup());
  });
}

/// Steps the tree (clients pumping alongside) in small increments until
/// every forwarder quiesces.  Returns the final clock.
double drainTree(FederationTree& tree,
                 std::vector<std::unique_ptr<Client>>& clients, double t) {
  for (int round = 0; round < 400 && !tree.quiesced(); ++round, t += 0.05) {
    for (auto& client : clients) {
      client->pump(t);
    }
    tree.step(t);
  }
  return t;
}

}  // namespace

TEST(FedTree, RollupsReachTheRootAcrossBothTiers) {
  FederationTreeOptions options;
  options.groups = 2;
  options.nodesPerGroup = 2;
  FederationTree tree(options);
  auto clients = makeTreeClients(tree, 16);
  double t = publishThroughTree(tree, clients, 5, 1.0);
  drainTree(tree, clients, t);
  ASSERT_TRUE(tree.quiesced());

  // Every rank's series at the root, with every node window subsumed.
  std::set<int> ranksAtRoot;
  for (const auto& key : tree.root().store().keys()) {
    ranksAtRoot.insert(key.rank);
  }
  EXPECT_EQ(ranksAtRoot.size(), 16U);
  // The groups partition the series space: no series lives in two.
  for (const auto& key : tree.group(0).store().keys()) {
    EXPECT_TRUE(tree.group(1).store().range(key, -1e12, 1e12).empty())
        << key.job << "/" << key.rank << "/" << key.metric
        << " present in both groups";
  }
  // Sharding means a node's series routes to *some* group by series
  // hash — not necessarily its own parent — so each node window is
  // checked against whichever group holds its series.
  for (int g = 0; g < 2; ++g) {
    for (int n = 0; n < 2; ++n) {
      const RollupStore& node = tree.node(g, n).store();
      expectSubsumed(node, tree.root().store());
      for (const auto& key : node.keys()) {
        const bool inGroup0 =
            !tree.group(0).store().range(key, -1e12, 1e12).empty();
        const RollupStore& group = tree.group(inGroup0 ? 0 : 1).store();
        expectSeriesSubsumed(node, group, key);
      }
    }
  }
  // The root sees every source, all forwarded at hop distance 2.
  const auto byHop = tree.root().sourcesByHop();
  ASSERT_TRUE(byHop.count(2));
  EXPECT_EQ(byHop.at(2), 16U);
  EXPECT_EQ(byHop.count(0), 0U);
}

TEST(FedTree, QuiescesDespiteKeepaliveRefreshFrames) {
  // Regression: source-refresh keepalives are window-less frames; an
  // inflight keepalive must not read as "data still in flight" or a
  // whole-second drain loop never terminates.
  FederationTree tree;
  auto clients = makeTreeClients(tree, 4);
  double t = publishThroughTree(tree, clients, 3, 1.0);
  // Whole-second steps: every step re-sends source refreshes.
  for (int round = 0; round < 20; ++round, t += 1.0) {
    tree.step(t);
  }
  EXPECT_TRUE(tree.quiesced());
}

TEST(FedTree, GroupCrashFailoverLosesNoAckedWindows) {
  FederationTreeOptions options;
  options.groups = 3;
  options.nodesPerGroup = 1;
  FederationTree tree(options);
  auto clients = makeTreeClients(tree, 12);

  double t = publishThroughTree(tree, clients, 4, 1.0);
  tree.crashGroup(0);
  EXPECT_FALSE(tree.groupAlive(0));
  // Keep publishing through the outage, past the 6 s catalog TTL: the
  // node forwarders re-resolve and re-route into the survivors.
  t = publishThroughTree(tree, clients, 10, t);
  EXPECT_GT(tree.catalog().counters().expired, 0U);
  tree.restartGroup(0, t);
  t = publishThroughTree(tree, clients, 4, t);
  drainTree(tree, clients, t);
  ASSERT_TRUE(tree.quiesced());

  // Zero acked loss across the kill: whatever the node daemons hold is
  // at the root, and membership changes + resyncs actually happened.
  std::uint64_t membershipChanges = 0;
  std::uint64_t resyncs = 0;
  for (int g = 0; g < 3; ++g) {
    EXPECT_FALSE(tree.node(g, 0).store().keys().empty()) << g;
    expectSubsumed(tree.node(g, 0).store(), tree.root().store());
    membershipChanges +=
        tree.nodeForwarder(g, 0).counters().membershipChanges;
    resyncs += tree.nodeForwarder(g, 0).counters().resyncs;
  }
  EXPECT_GT(membershipChanges, 3U);  // initial set + outage + restart
  EXPECT_GT(resyncs, 0U);
  std::set<int> ranksAtRoot;
  for (const auto& key : tree.root().store().keys()) {
    ranksAtRoot.insert(key.rank);
  }
  EXPECT_EQ(ranksAtRoot.size(), 12U);
}

// --- fan-in versus the flat daemon -------------------------------------------

namespace {

constexpr std::size_t kFanInMetrics = 4;

/// The same capacity for every daemon, flat or tree.  One poll models one
/// scheduling quantum of daemon CPU per period, so the per-poll batch
/// budget is the capacity knob; the admission queue is deep enough that
/// the inline backstop never fires and overflow shows up as backlog.
DaemonOptions budgetedDaemonOptions() {
  DaemonOptions options;
  options.maxBatchesPerPoll = 300;
  options.maxPendingBatches = 1U << 20;
  return options;
}

/// One batch of kFanInMetrics records per client, flushed at enqueue.
/// The clients never pump, so no daemon's pressure coarsens the load.
void publishFanInPeriod(std::vector<std::unique_ptr<Client>>& clients,
                        double t) {
  std::vector<IdRecord> batch;
  for (std::size_t m = 0; m < kFanInMetrics; ++m) {
    batch.push_back({t, names::intern("fed.metric." + std::to_string(m)),
                     t + static_cast<double>(m)});
  }
  for (auto& client : clients) {
    client->enqueueIds(batch, t);
  }
}

/// Records one budgeted flat daemon ingests per virtual second while
/// `ranks` clients publish for `periods` seconds.
double flatIngestRate(int ranks, int periods) {
  PipeHub hub;
  Aggregator daemon(hub.makeServer(), {}, budgetedDaemonOptions());
  auto clients = makeClients(ranks, kFanInMetrics,
                             [&hub](int) { return hub.makeClientTransport(); });
  for (int period = 0; period < periods; ++period) {
    publishFanInPeriod(clients, 1.0 + period);
    daemon.poll(1.0 + period);
  }
  return static_cast<double>(daemon.counters().recordsIngested) / periods;
}

/// The flat daemon never drops an admitted batch, so its total catches up
/// once the backlog drains; past its per-poll budget it loses timeliness.
/// Compared is what each topology ingests while the ranks publish, per
/// virtual second, so the rates are deterministic: a 4x4 tree must take
/// every record as it comes (within 10 %) and at least twice the flat
/// rate, then lose no acked window on the way to the root.
void expectTreeOutrunsFlat(int ranks, int periods, bool killGroup) {
  const double flatRate = flatIngestRate(ranks, periods);
  FederationTreeOptions options;
  options.groups = 4;
  options.nodesPerGroup = 4;
  options.daemonOptions = budgetedDaemonOptions();
  FederationTree tree(options);
  auto clients = makeTreeClients(tree, ranks, kFanInMetrics);
  double t = 1.0;
  for (int period = 0; period < periods; ++period, t += 1.0) {
    if (killGroup && period == periods * 2 / 5) {
      tree.crashGroup(0);
    }
    publishFanInPeriod(clients, t);
    tree.step(t);
  }
  std::uint64_t treeIngested = 0;
  for (int g = 0; g < 4; ++g) {
    for (int n = 0; n < 4; ++n) {
      treeIngested += tree.node(g, n).counters().recordsIngested;
    }
  }
  const double treeRate = static_cast<double>(treeIngested) / periods;
  EXPECT_GE(treeRate, static_cast<double>(kFanInMetrics) * ranks / 1.1);
  EXPECT_GE(treeRate / std::max(flatRate, 1.0), 2.0);

  drainTree(tree, clients, t);
  ASSERT_TRUE(tree.quiesced());
  std::size_t nodeSeries = 0;
  for (int g = 0; g < 4; ++g) {
    for (int n = 0; n < 4; ++n) {
      nodeSeries += tree.node(g, n).store().keys().size();
      expectSubsumed(tree.node(g, n).store(), tree.root().store());
    }
  }
  EXPECT_EQ(nodeSeries, kFanInMetrics * static_cast<std::size_t>(ranks));
  std::set<int> ranksAtRoot;
  for (const auto& key : tree.root().store().keys()) {
    ranksAtRoot.insert(key.rank);
  }
  EXPECT_EQ(static_cast<int>(ranksAtRoot.size()), ranks);
  for (const auto& client : clients) {
    EXPECT_EQ(client->counters().recordsDropped, 0U);
  }
}

}  // namespace

TEST(FedTree, FanInOutrunsTheFlatDaemonAt1000RanksThroughAGroupKill) {
  // One group dies mid-run and stays dead: its catalog entry ages out
  // and the node forwarders resync into the survivors.
  expectTreeOutrunsFlat(1000, 24, /*killGroup=*/true);
}

TEST(FedTree, FanInOutrunsTheFlatDaemonAt4000Ranks) {
  expectTreeOutrunsFlat(4000, 12, /*killGroup=*/false);
}

// --- ClusterJob tree mode ----------------------------------------------------

TEST(FedCluster, FederatedJobCoversEveryRankAtTheRoot) {
  // The acceptance-scale run: >= 1000 simulated ranks through a
  // node -> group -> root tree, driven by the lockstep cluster.
  const auto topo = topology::presets::frontier();
  cluster::ClusterJobConfig cfg;
  cfg.nodes = 128;
  cfg.ranksPerNode = 8;
  cfg.cpusPerTask = 7;
  cfg.workload.ompThreads = 2;
  // ~3 virtual seconds of work: enough sampling rounds for every rank
  // to publish (the monitor samples once per virtual second).
  cfg.workload.steps = 30;
  cfg.workload.workPerStep = 10;
  cluster::ClusterJob job(topo, cfg);
  job.enableFederation("bigjob", /*groups=*/8);
  job.run();

  auto* tree = job.federationTree();
  ASSERT_NE(tree, nullptr);
  EXPECT_TRUE(tree->quiesced());
  std::set<int> ranksAtRoot;
  for (const auto& key : tree->root().store().keys()) {
    ranksAtRoot.insert(key.rank);
  }
  EXPECT_EQ(static_cast<int>(ranksAtRoot.size()), job.totalRanks());
  // All 1024 sources forwarded through two hops; none direct.
  const auto byHop = tree->root().sourcesByHop();
  ASSERT_TRUE(byHop.count(2));
  EXPECT_EQ(static_cast<int>(byHop.at(2)), job.totalRanks());
  // Nothing was shed client-side on the way in.
  for (int rank = 0; rank < job.totalRanks(); ++rank) {
    EXPECT_EQ(job.aggClient(rank).counters().recordsDropped, 0U);
  }
}

TEST(FedCluster, GroupCrashMidJobFailsOverThroughTheCatalog) {
  const auto topo = topology::presets::frontier();
  cluster::ClusterJobConfig cfg;
  cfg.nodes = 4;
  cfg.ranksPerNode = 4;
  cfg.cpusPerTask = 7;
  cfg.workload.ompThreads = 2;
  // ~20 virtual seconds: the outage below must outlive the catalog TTL
  // (6 s) while the job is still publishing.
  cfg.workload.steps = 200;
  cfg.workload.workPerStep = 10;
  cluster::ClusterJob job(topo, cfg);
  job.enableFederation("simjob", /*groups=*/2);

  job.run(4.0);
  job.crashAggGroup(0);
  job.run(16.0);  // 12 s outage, past the catalog TTL: forwarders re-route
  job.restartAggGroup(0);
  job.run();

  auto* tree = job.federationTree();
  ASSERT_NE(tree, nullptr);
  std::set<int> ranksAtRoot;
  for (const auto& key : tree->root().store().keys()) {
    ranksAtRoot.insert(key.rank);
  }
  EXPECT_EQ(static_cast<int>(ranksAtRoot.size()), job.totalRanks());
  std::uint64_t membershipChanges = 0;
  for (int g = 0; g < tree->groups(); ++g) {
    for (int n = 0; n < tree->nodesPerGroup(); ++n) {
      expectSubsumed(tree->node(g, n).store(), tree->root().store());
      membershipChanges +=
          tree->nodeForwarder(g, n).counters().membershipChanges;
    }
  }
  EXPECT_GT(membershipChanges,
            static_cast<std::uint64_t>(tree->groups() *
                                       tree->nodesPerGroup()));
  EXPECT_GT(tree->catalog().counters().expired, 0U);
}

TEST(FedCluster, FederationValidatesGroupDivisibility) {
  const auto topo = topology::presets::frontier();
  cluster::ClusterJobConfig cfg;
  cfg.nodes = 3;
  cfg.ranksPerNode = 2;
  cfg.cpusPerTask = 7;
  cluster::ClusterJob job(topo, cfg);
  EXPECT_THROW(job.enableFederation("j", /*groups=*/2), ConfigError);
}
