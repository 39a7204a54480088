#include "aggregator/federation.hpp"

#include <algorithm>
#include <string_view>
#include <tuple>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace zerosum::aggregator {

namespace {

/// FNV-1a 64-bit over a byte span.
std::uint64_t fnv1a(const char* data, std::size_t size,
                    std::uint64_t seed = 1469598103934665603ULL) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t seed) {
  return fnv1a(s.data(), s.size(), seed);
}

std::uint32_t fold(std::uint64_t h) {
  return static_cast<std::uint32_t>((h ^ (h >> 32)) % kShardSpace);
}

}  // namespace

std::uint32_t shardOfSeries(const SeriesKey& key) {
  // Hashes the names' text, never their process-local ids, so every
  // daemon routes a series alike.
  std::uint64_t h = fnv1a(key.jobName(), 1469598103934665603ULL);
  h = fnv1a("\0", 1, h);
  const std::int32_t rank = key.rank;
  h = fnv1a(reinterpret_cast<const char*>(&rank), sizeof(rank), h);
  h = fnv1a("\0", 1, h);
  h = fnv1a(key.metricName(), h);
  return fold(h);
}

HashRing::HashRing(std::vector<CatalogEntry> entries, int pointsPerEntry)
    : entries_(std::move(entries)) {
  points_.reserve(entries_.size() *
                  static_cast<std::size_t>(std::max(1, pointsPerEntry)));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    for (int p = 0; p < std::max(1, pointsPerEntry); ++p) {
      std::uint64_t h = fnv1a(entries_[i].name, 1469598103934665603ULL);
      h = fnv1a(reinterpret_cast<const char*>(&p), sizeof(p), h);
      points_.emplace_back(fold(h), i);
    }
  }
  std::sort(points_.begin(), points_.end());
}

const CatalogEntry* HashRing::route(std::uint32_t shard) const {
  if (points_.empty()) {
    return nullptr;
  }
  // First point clockwise from the shard whose entry covers the shard's
  // range; scan wraps at most once around the ring.
  auto it = std::lower_bound(
      points_.begin(), points_.end(),
      std::make_pair(shard, std::size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t scanned = 0; scanned < points_.size(); ++scanned, ++it) {
    if (it == points_.end()) {
      it = points_.begin();
    }
    const CatalogEntry& entry = entries_[it->second];
    if (shard >= entry.shardLo && shard <= entry.shardHi) {
      return &entry;
    }
  }
  return nullptr;
}

bool HashRing::sameMembership(
    const std::vector<CatalogEntry>& entries) const {
  // Equal as multisets: each incoming entry pairs with a distinct ring
  // entry, in any order.  The upstream set is a handful of entries, so
  // counting each one's copies on both sides takes a few comparisons
  // and no allocation.
  return entries.size() == entries_.size() &&
         std::ranges::all_of(entries, [&](const CatalogEntry& entry) {
           return std::ranges::count(entries, entry) ==
                  std::ranges::count(entries_, entry);
         });
}

// --- Forwarder --------------------------------------------------------------

Forwarder::Forwarder(Aggregator& local, TransportFactory factory,
                     ForwarderOptions options)
    : local_(local), factory_(std::move(factory)), options_(options) {
  if (!factory_) {
    throw ConfigError("Forwarder requires a transport factory");
  }
  local_.mutableStore().enableDirtyTracking();
  auto& registry = trace::MetricsRegistry::instance();
  ctrForwardedBatches_ = &registry.counter("zs.aggd.fanin.forwarded_batches");
  ctrForwardedWindows_ = &registry.counter("zs.aggd.fanin.forwarded_windows");
  ctrResyncs_ = &registry.counter("zs.aggd.fanin.resyncs");
  ctrSuppressed_ = &registry.counter("zs.aggd.fanin.windows_suppressed");
  gaugeUpstreamPressure_ = &registry.gauge("zs.aggd.fanin.upstream_pressure");
}

void Forwarder::setUpstreams(const std::vector<CatalogEntry>& entries,
                             double nowSeconds) {
  if (ring_.sameMembership(entries)) {
    return;
  }
  ++counters_.membershipChanges;
  ring_ = HashRing(entries);
  // Keep links whose (name, generation) survived — their connection and
  // ack FIFO stay valid; everything else is torn down.
  std::vector<std::unique_ptr<Link>> kept;
  for (const CatalogEntry& entry : entries) {
    auto it = std::find_if(links_.begin(), links_.end(), [&](const auto& l) {
      return l && l->entry.name == entry.name &&
             l->entry.generation == entry.generation;
    });
    if (it != links_.end()) {
      (*it)->entry = entry;
      kept.push_back(std::move(*it));
    } else {
      auto link = std::make_unique<Link>();
      link->entry = entry;
      link->nextConnectAt = nowSeconds;
      kept.push_back(std::move(link));
    }
  }
  links_ = std::move(kept);
  // Membership moved series between upstreams: replay everything so the
  // new owners see every retained window (idempotent upstream — this is
  // the documented rebalancing rule).
  resync();
}

void Forwarder::resync() {
  ++counters_.resyncs;
  ctrResyncs_->add();
  local_.mutableStore().markAllDirty();
  for (auto& link : links_) {
    link->pending.clear();
  }
}

bool Forwarder::ensureConnected(Link& link, double nowSeconds) {
  if (link.transport != nullptr && link.transport->connected()) {
    return true;
  }
  if (nowSeconds < link.nextConnectAt) {
    return false;
  }
  if (link.transport == nullptr) {
    link.transport = factory_(link.entry);
    if (link.transport == nullptr) {
      link.nextConnectAt = nowSeconds + options_.reconnectBackoffCapSeconds;
      return false;
    }
  }
  if (!link.transport->connect()) {
    ++counters_.connectFailures;
    link.currentBackoff =
        link.currentBackoff == 0.0
            ? options_.reconnectBackoffSeconds
            : std::min(link.currentBackoff * 2.0,
                       options_.reconnectBackoffCapSeconds);
    link.nextConnectAt = nowSeconds + link.currentBackoff;
    return false;
  }
  link.currentBackoff = 0.0;
  link.reader = FrameReader();
  link.names.clear();
  link.inflight.clear();
  link.lastSourceRefresh = -1.0;
  if (link.everConnected) {
    // The upstream may have restarted with an empty store: replay every
    // retained window (cumulative snapshots make this idempotent).
    ++counters_.reconnects;
    resync();
  }
  link.everConnected = true;
  return true;
}

void Forwarder::closeLink(Link& link, double nowSeconds) {
  if (link.transport != nullptr) {
    link.transport->close();
  }
  link.inflight.clear();
  link.currentBackoff = link.currentBackoff == 0.0
                            ? options_.reconnectBackoffSeconds
                            : std::min(link.currentBackoff * 2.0,
                                       options_.reconnectBackoffCapSeconds);
  link.nextConnectAt = nowSeconds + link.currentBackoff;
}

void Forwarder::processIncoming(Link& link, double nowSeconds) {
  if (link.transport == nullptr || !link.transport->connected()) {
    return;
  }
  link.recvScratch.clear();
  const bool open = link.transport->receive(link.recvScratch);
  if (!link.recvScratch.empty()) {
    link.reader.feed(link.recvScratch);
    try {
      Frame frame;
      while (link.reader.next(frame)) {
        if (frame.kind != FrameKind::kBatchAck) {
          continue;
        }
        ++counters_.acksReceived;
        link.pressure = frame.pressure;
        link.pressureAt = nowSeconds;
        if (frame.batchSeq != 0) {
          // Acks are cumulative in per-connection FIFO order.
          auto it = link.inflight.begin();
          while (it != link.inflight.end() && it->seq <= frame.batchSeq) {
            ++it;
          }
          link.inflight.erase(link.inflight.begin(), it);
        }
      }
    } catch (const Error& e) {
      log::warn() << "forwarder: dropping upstream '" << link.entry.name
                  << "': " << e.what();
      closeLink(link, nowSeconds);
      return;
    }
  }
  if (!open) {
    closeLink(link, nowSeconds);
  }
}

PressureLevel Forwarder::effectivePressure(const Link& link,
                                           double nowSeconds) const {
  if (link.pressureAt < 0.0 ||
      nowSeconds - link.pressureAt > options_.pressureStaleSeconds) {
    return PressureLevel::kOk;
  }
  return link.pressure;
}

void Forwarder::drainStore(double nowSeconds) {
  (void)nowSeconds;
  if (links_.empty() || ring_.empty()) {
    return;  // nowhere to route; leave the windows dirty in the store
  }
  while (local_.mutableStore().drainDirty(drainScratch_, 1024) > 0) {
    for (const SeriesBlocks::Block& block : drainScratch_.blocks()) {
      // Every window of a series shares its key, so one route serves all.
      const auto windows = drainScratch_.windows(block);
      const CatalogEntry* entry = ring_.route(shardOfSeries(block.key));
      const auto link =
          std::find_if(links_.begin(), links_.end(), [&](const auto& l) {
            return entry != nullptr && l->entry.name == entry->name;
          });
      if (link == links_.end()) {
        counters_.windowsUnroutable += windows.size();
        continue;
      }
      enqueue(**link, block.key, windows);
    }
  }
}

void Forwarder::enqueue(Link& link, const SeriesKey& key,
                        std::span<const WindowSnapshot> windows) {
  const auto before = [](const WindowSnapshot& a, const WindowSnapshot& b) {
    return std::tie(a.resolution, a.windowIndex) <
           std::tie(b.resolution, b.windowIndex);
  };
  auto& queued = link.pending[key];
  for (const WindowSnapshot& window : windows) {
    const auto pos =
        std::lower_bound(queued.begin(), queued.end(), window, before);
    if (pos != queued.end() && !before(window, *pos)) {
      *pos = window;  // the newer snapshot of a queued window wins
    } else {
      queued.insert(pos, window);  // in-order windows append
    }
  }
  // The store has evicted whatever fell off the retention horizon of the
  // series' newest window, and so would the upstream: drop it.
  std::int64_t newest[2] = {0, 0};
  for (const WindowSnapshot& window : queued) {
    newest[static_cast<int>(window.resolution)] = window.windowIndex;
  }
  const StoreOptions& store = local_.store().options();
  const int retention[2] = {store.fineRetentionWindows,
                            store.coarseRetentionWindows};
  std::erase_if(queued, [&](const WindowSnapshot& window) {
    const int p = static_cast<int>(window.resolution);
    return window.windowIndex < newest[p] - retention[p] + 1;
  });
}

void Forwarder::fillSources(Frame& frame, double nowSeconds) const {
  const auto sources = local_.sources();
  frame.forwardSources.reserve(sources.size());
  std::int32_t lo = 0;
  std::int32_t hi = -1;
  for (const SourceInfo& info : sources) {
    ForwardSource src;
    src.job = info.hello.job;
    src.rank = info.hello.rank;
    src.worldSize = info.hello.worldSize;
    src.hostname = info.hello.hostname;
    src.state = static_cast<std::uint8_t>(info.state);
    src.lastSeenAgeSeconds = std::max(0.0, nowSeconds - info.lastSeenSeconds);
    if (hi < lo) {
      lo = hi = src.rank;
    } else {
      lo = std::min(lo, src.rank);
      hi = std::max(hi, src.rank);
    }
    frame.forwardSources.push_back(std::move(src));
    if (frame.forwardSources.size() >= 0xFFFF) {
      break;  // u16 count on the wire; a node daemon never nears this
    }
  }
  frame.rankLo = lo;
  frame.rankHi = hi;
}

void Forwarder::sendPending(Link& link, double nowSeconds) {
  const bool coarseOnly =
      effectivePressure(link, nowSeconds) != PressureLevel::kOk;
  bool sourcesDue =
      link.lastSourceRefresh < 0.0 ||
      nowSeconds - link.lastSourceRefresh >= options_.sourceRefreshSeconds;
  while ((!link.pending.empty() || sourcesDue) &&
         link.inflight.size() < options_.maxInflight) {
    Frame frame;
    frame.kind = FrameKind::kForward;
    frame.timeSeconds = nowSeconds;
    frame.batchSeq = link.nextSeq;
    frame.hopCount = options_.hopCount;
    frame.origin = options_.origin;
    if (sourcesDue) {
      fillSources(frame, nowSeconds);
    }
    // One block per series in key order, windows in (resolution, index)
    // order; a frame that fills mid-series leaves the rest queued first.
    SeriesBlocks& out = frame.forwardSeries;
    auto it = link.pending.begin();
    while (it != link.pending.end() &&
           out.windowCount() < options_.maxWindowsPerFrame) {
      out.open() = it->first;
      auto& queued = it->second;
      std::size_t taken = 0;
      for (; taken < queued.size() &&
             out.windowCount() < options_.maxWindowsPerFrame;
           ++taken) {
        if (coarseOnly && queued[taken].resolution == Resolution::kFine) {
          // Degradation hop: under acked upstream pressure, fine windows
          // are withheld (their records still arrive through the coarse
          // plane) instead of the frame being dropped wholesale.
          ++counters_.windowsSuppressed;
          ctrSuppressed_->add();
          continue;
        }
        out.push(queued[taken]);
      }
      out.dropEmpty();  // every window it had was withheld
      if (taken < queued.size()) {
        queued.erase(queued.begin(),
                     queued.begin() + static_cast<std::ptrdiff_t>(taken));
        break;
      }
      it = link.pending.erase(it);
    }
    const std::size_t windows = out.windowCount();
    if (windows == 0 && !sourcesDue) {
      break;  // pressure suppression consumed everything sendable
    }
    if (!link.transport->send(encodeFrame(frame, link.names))) {
      // The frame (and its windows) evaporates with the connection; the
      // reconnect path resyncs, so nothing is lost — just re-sent.
      ++counters_.sendFailures;
      closeLink(link, nowSeconds);
      return;
    }
    if (sourcesDue) {
      link.lastSourceRefresh = nowSeconds;
      sourcesDue = false;
    }
    link.inflight.push_back({link.nextSeq, windows});
    ++link.nextSeq;
    ++counters_.framesForwarded;
    counters_.windowsForwarded += windows;
    ctrForwardedBatches_->add();
    ctrForwardedWindows_->add(windows);
    if (coarseOnly) {
      ++counters_.coarseOnlyFrames;
    }
  }
}

void Forwarder::pump(double nowSeconds) {
  drainStore(nowSeconds);
  PressureLevel worst = PressureLevel::kOk;
  for (auto& linkPtr : links_) {
    Link& link = *linkPtr;
    if (!ensureConnected(link, nowSeconds)) {
      continue;
    }
    processIncoming(link, nowSeconds);
    if (link.transport == nullptr || !link.transport->connected()) {
      continue;  // processIncoming closed it
    }
    sendPending(link, nowSeconds);
    worst = std::max(worst, effectivePressure(link, nowSeconds));
  }
  gaugeUpstreamPressure_->set(
      static_cast<double>(static_cast<std::uint8_t>(worst)));
}

PressureLevel Forwarder::upstreamPressure(double nowSeconds) const {
  PressureLevel worst = PressureLevel::kOk;
  for (const auto& link : links_) {
    worst = std::max(worst, effectivePressure(*link, nowSeconds));
  }
  return worst;
}

bool Forwarder::quiesced() const {
  if (local_.store().dirtyCount() != 0) {
    return false;
  }
  for (const auto& link : links_) {
    if (!link->pending.empty()) {
      return false;
    }
    for (const auto& frame : link->inflight) {
      // Window-less frames are source-refresh keepalives; losing one
      // loses no data, so they do not hold up an orderly shutdown.
      if (frame.windows != 0) {
        return false;
      }
    }
  }
  return true;
}

std::size_t Forwarder::pendingWindows() const {
  std::size_t total = 0;
  for (const auto& link : links_) {
    for (const auto& [key, queued] : link->pending) {
      total += queued.size();
    }
  }
  return total;
}

std::size_t Forwarder::inflightFrames() const {
  std::size_t total = 0;
  for (const auto& link : links_) {
    total += link->inflight.size();
  }
  return total;
}

// --- CatalogAnnouncer -------------------------------------------------------

CatalogAnnouncer::CatalogAnnouncer(std::unique_ptr<Transport> transport,
                                   CatalogEntry self, AnnouncerOptions options)
    : transport_(std::move(transport)), self_(std::move(self)),
      options_(options) {
  if (!transport_) {
    throw ConfigError("CatalogAnnouncer requires a transport");
  }
}

void CatalogAnnouncer::pump(double nowSeconds) {
  if (!transport_->connected()) {
    if (nowSeconds < nextConnectAt_) {
      return;
    }
    if (!transport_->connect()) {
      currentBackoff_ = currentBackoff_ == 0.0
                            ? options_.reconnectBackoffSeconds
                            : std::min(currentBackoff_ * 2.0,
                                       options_.reconnectBackoffCapSeconds);
      nextConnectAt_ = nowSeconds + currentBackoff_;
      return;
    }
    currentBackoff_ = 0.0;
    reader_ = FrameReader();
    lastAnnounceAt_ = -1.0;  // announce immediately on a new connection
  }
  // Drain acks first: adopt the catalog-assigned generation so the next
  // announce (and any peer resolving us) sees this incarnation.
  recvScratch_.clear();
  const bool open = transport_->receive(recvScratch_);
  if (!recvScratch_.empty()) {
    reader_.feed(recvScratch_);
    try {
      Frame frame;
      while (reader_.next(frame)) {
        if (frame.kind != FrameKind::kCatalogAck) {
          continue;
        }
        ++counters_.acksReceived;
        if (frame.catalogEntry.generation >= self_.generation) {
          self_.generation = frame.catalogEntry.generation;
        } else {
          ++counters_.staleAcks;
        }
      }
    } catch (const Error&) {
      transport_->close();
      nextConnectAt_ = nowSeconds + options_.reconnectBackoffSeconds;
      return;
    }
  }
  if (!open) {
    transport_->close();
    nextConnectAt_ = nowSeconds + options_.reconnectBackoffSeconds;
    return;
  }
  if (lastAnnounceAt_ >= 0.0 &&
      nowSeconds - lastAnnounceAt_ < options_.intervalSeconds) {
    return;
  }
  Frame frame;
  frame.kind = FrameKind::kCatalogAnnounce;
  frame.catalogEntry = self_;
  if (!transport_->send(encodeFrame(frame))) {
    ++counters_.sendFailures;
    transport_->close();
    nextConnectAt_ = nowSeconds + options_.reconnectBackoffSeconds;
    return;
  }
  ++counters_.announcesSent;
  lastAnnounceAt_ = nowSeconds;
}

// --- FederationTree ---------------------------------------------------------

FederationTree::FederationTree(FederationTreeOptions options)
    : options_(options), catalog_({options.catalogTtlSeconds}) {
  if (options_.groups < 1 || options_.nodesPerGroup < 1) {
    throw ConfigError("FederationTree needs >= 1 group and node per group");
  }
  rootHub_ = std::make_unique<PipeHub>();
  root_ = std::make_unique<Aggregator>(rootHub_->makeServer(),
                                       options_.storeOptions,
                                       options_.daemonOptions);
  root_->attachCatalog(&catalog_);
  groups_.resize(static_cast<std::size_t>(options_.groups));
  for (int g = 0; g < options_.groups; ++g) {
    groups_[g] = std::make_unique<GroupRuntime>();
    groups_[g]->hub = std::make_unique<PipeHub>();
    buildGroup(g, 0.0);
    for (int n = 0; n < options_.nodesPerGroup; ++n) {
      auto node = std::make_unique<NodeRuntime>();
      node->hub = std::make_unique<PipeHub>();
      node->daemon = std::make_unique<Aggregator>(node->hub->makeServer(),
                                                  options_.storeOptions,
                                                  options_.daemonOptions);
      ForwarderOptions fwd = options_.forwarderOptions;
      fwd.origin = "node-" + std::to_string(g) + "-" + std::to_string(n);
      fwd.hopCount = 1;
      node->forwarder = std::make_unique<Forwarder>(
          *node->daemon,
          [this](const CatalogEntry& entry) -> std::unique_ptr<Transport> {
            // Entry names encode the hub: "group-<g>".
            for (auto& group : groups_) {
              if (group->announcer != nullptr &&
                  group->announcer->self().name == entry.name) {
                return group->hub->makeClientTransport();
              }
            }
            return nullptr;
          },
          fwd);
      CatalogEntry self;
      self.role = DaemonRole::kNode;
      self.name = fwd.origin;
      self.host = "pipe";
      self.port = indexOf(g, n);
      AnnouncerOptions ann;
      ann.intervalSeconds = options_.announceIntervalSeconds;
      node->announcer = std::make_unique<CatalogAnnouncer>(
          rootHub_->makeClientTransport(), self, ann);
      nodes_.push_back(std::move(node));
    }
  }
}

FederationTree::~FederationTree() = default;

void FederationTree::buildGroup(int g, double nowSeconds) {
  GroupRuntime& group = *groups_.at(g);
  group.daemon = std::make_unique<Aggregator>(group.hub->makeServer(),
                                              options_.storeOptions,
                                              options_.daemonOptions);
  ForwarderOptions fwd = options_.forwarderOptions;
  fwd.origin = "group-" + std::to_string(g);
  fwd.hopCount = 2;
  group.forwarder = std::make_unique<Forwarder>(
      *group.daemon,
      [this](const CatalogEntry&) { return rootHub_->makeClientTransport(); },
      fwd);
  CatalogEntry rootEntry;
  rootEntry.role = DaemonRole::kRoot;
  rootEntry.name = "root";
  group.forwarder->setUpstreams({rootEntry}, nowSeconds);
  CatalogEntry self;
  self.role = DaemonRole::kGroup;
  self.name = fwd.origin;
  self.host = "pipe";
  self.port = g;
  AnnouncerOptions ann;
  ann.intervalSeconds = options_.announceIntervalSeconds;
  group.announcer = std::make_unique<CatalogAnnouncer>(
      rootHub_->makeClientTransport(), self, ann);
  group.alive = true;
}

std::unique_ptr<Transport> FederationTree::makeNodeTransport(int g, int n) {
  return nodes_.at(indexOf(g, n))->hub->makeClientTransport();
}

std::unique_ptr<Transport> FederationTree::makeRootTransport() {
  return rootHub_->makeClientTransport();
}

void FederationTree::step(double nowSeconds) {
  // Leaf tier: ingest rank batches, then push rollups toward the groups.
  const auto groupEntries =
      catalog_.entriesByRole(DaemonRole::kGroup, nowSeconds);
  for (auto& node : nodes_) {
    node->daemon->poll(nowSeconds);
    node->forwarder->setUpstreams(groupEntries, nowSeconds);
    node->forwarder->pump(nowSeconds);
    node->announcer->pump(nowSeconds);
  }
  // Mid tier: ingest node forwards, push merged rollups to the root.
  for (auto& group : groups_) {
    if (!group->alive) {
      continue;
    }
    group->daemon->poll(nowSeconds);
    group->forwarder->pump(nowSeconds);
    group->announcer->pump(nowSeconds);
  }
  // Apex: ingest group forwards, serve announces/queries, expire the
  // catalog (root poll drives catalog_.expire()).
  root_->poll(nowSeconds);
}

double FederationTree::settle(double nowSeconds, double dt, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    nowSeconds += dt;
    step(nowSeconds);
  }
  return nowSeconds;
}

void FederationTree::crashGroup(int g) {
  GroupRuntime& group = *groups_.at(g);
  group.hub->setDown(true);
  group.alive = false;
}

void FederationTree::restartGroup(int g, double nowSeconds) {
  GroupRuntime& group = *groups_.at(g);
  group.hub->setDown(false);
  buildGroup(g, nowSeconds);
}

bool FederationTree::quiesced() const {
  for (const auto& node : nodes_) {
    if (!node->forwarder->quiesced()) {
      return false;
    }
  }
  for (const auto& group : groups_) {
    if (group->alive && !group->forwarder->quiesced()) {
      return false;
    }
  }
  return true;
}

}  // namespace zerosum::aggregator
