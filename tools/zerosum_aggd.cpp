// zerosum-aggd — the aggregation daemon (paper §6: collecting ZeroSum
// data from across the application processes; cctools catalog-server
// style).  Listens on loopback TCP, ingests metric batches from the
// embedded clients ranks carry (ZS_AGG_PORT), maintains the rollup
// store, and answers JSON queries over the same socket.
//
//   zerosum-aggd [options]
//
//   --port <n>           listen port (default ZS_AGG_PORT, else 8990;
//                        0 = kernel-assigned, printed on startup)
//   --http-port <n>      also serve the telemetry plane over HTTP on this
//                        port (0 = kernel-assigned, printed on startup):
//                        GET /metrics (Prometheus text), /healthz,
//                        /readyz, /dashboard, plus the read plane
//                        (DESIGN.md §12): GET /api/query and POST /query
//                        (its ops: src/aggregator/query.hpp), GET
//                        /api/stats (default off)
//   --query-budget <n>   queries admitted per poll across both classes
//                        (default 128; excess sheds with 429)
//   --bulk-budget <n>    slice of the per-poll budget bulk-class queries
//                        (exports) may use (default 8; zero while the
//                        ingest pressure ladder is elevated)
//   --query-cache <n>    result-cache entries (default 256; 0 disables)
//   --duration <s>       exit after this many seconds (default 0 = run
//                        until signalled)
//   --exit-on-goodbye    exit once at least one source was seen and all
//                        known sources have departed
//   --dump [interval_s]  print the live allocation dashboard every
//                        interval (default 2 s)
//   --stale <s>          staleness horizon before a silent source is
//                        evicted (default 30)
//   --data-dir <dir>     persist ingested batches to a tsdb data dir
//                        (WAL + compressed segments; default ZS_TSDB_DIR;
//                        recovers state on restart)
//   --fsync <mode>       WAL durability: always|batch|off (default
//                        ZS_TSDB_FSYNC, else batch)
//   --async-writer       drain batches to the store from a worker thread
//                        through a bounded queue (requires --data-dir);
//                        a slow disk then raises backpressure on clients
//                        instead of stalling ingest
//
// Federation (DESIGN.md §11) — position this daemon in a fan-in tree:
//
//   --role <r>           node|group|root (default node).  A root hosts
//                        the catalog: other daemons announce to it and
//                        resolve their upstream through it
//   --upstream <list>    comma-separated host:port upstreams to forward
//                        local rollups to (static wiring; bypasses
//                        catalog resolution)
//   --catalog <h:p>      catalog endpoint (default ZS_AGG_CATALOG):
//                        announce this daemon there and — unless
//                        --upstream pinned the set — re-resolve the
//                        upstream membership through it periodically
//   --name <label>       identity announced to the catalog (default
//                        host:port)
//
// With --data-dir, SIGINT/SIGTERM is an orderly shutdown: the WAL is
// fsynced, hot windows sealed into a segment, and the source registry
// persisted before exit — no acknowledged batch is lost.
//
// The final dashboard and ingest counters are printed on exit.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/catalog.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/federation.hpp"
#include "aggregator/http.hpp"
#include "aggregator/queryservice.hpp"
#include "aggregator/tcp.hpp"
#include "aggregator/writer.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/monotime.hpp"
#include "tsdb/engine.hpp"

using namespace zerosum;

namespace {

volatile std::sig_atomic_t gStop = 0;

void onSignal(int) { gStop = 1; }

// Liveness deadlines (staleness sweeps, catalog TTLs, reconnect backoff)
// all run on the monotonic clock so an NTP step can neither mass-expire
// sources nor wedge catalog expiry (common/monotime.hpp).
double nowSeconds() { return monotonicSeconds(); }

/// "host:port" → catalog entry; exits with a usage error on garbage.
aggregator::CatalogEntry parseEndpoint(const std::string& text,
                                       aggregator::DaemonRole role) {
  const auto colon = text.rfind(':');
  const int port =
      colon == std::string::npos ? 0 : std::atoi(text.c_str() + colon + 1);
  if (colon == std::string::npos || colon == 0 || port <= 0 ||
      port > 65535) {
    std::cerr << "zerosum-aggd: bad endpoint \"" << text
              << "\" (want host:port)\n";
    std::exit(2);
  }
  aggregator::CatalogEntry entry;
  entry.role = role;
  entry.name = text;
  entry.host = text.substr(0, colon);
  entry.port = port;
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  int port = static_cast<int>(env::getInt("ZS_AGG_PORT", 8990));
  int httpPort = -1;
  double duration = 0.0;
  bool exitOnGoodbye = false;
  double dumpInterval = 0.0;
  aggregator::StoreOptions storeOptions;
  aggregator::QueryServiceOptions queryOptions;
  std::string dataDir = env::getString("ZS_TSDB_DIR", "");
  std::string fsyncMode = env::getString("ZS_TSDB_FSYNC", "batch");
  bool asyncWriter = false;
  std::string roleName = "node";
  std::string upstreamList;
  std::string catalogEndpoint = env::getString("ZS_AGG_CATALOG", "");
  std::string announceName;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--http-port" && i + 1 < argc) {
      httpPort = std::atoi(argv[++i]);
    } else if (arg == "--duration" && i + 1 < argc) {
      duration = std::atof(argv[++i]);
    } else if (arg == "--exit-on-goodbye") {
      exitOnGoodbye = true;
    } else if (arg == "--dump") {
      dumpInterval = 2.0;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        dumpInterval = std::atof(argv[++i]);
      }
    } else if (arg == "--stale" && i + 1 < argc) {
      storeOptions.staleSeconds = std::atof(argv[++i]);
    } else if (arg == "--query-budget" && i + 1 < argc) {
      queryOptions.maxQueriesPerPoll =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--bulk-budget" && i + 1 < argc) {
      queryOptions.bulkQueriesPerPoll =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--query-cache" && i + 1 < argc) {
      queryOptions.cacheMaxEntries =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--data-dir" && i + 1 < argc) {
      dataDir = argv[++i];
    } else if (arg == "--fsync" && i + 1 < argc) {
      fsyncMode = argv[++i];
    } else if (arg == "--async-writer") {
      asyncWriter = true;
    } else if (arg == "--role" && i + 1 < argc) {
      roleName = argv[++i];
    } else if (arg == "--upstream" && i + 1 < argc) {
      upstreamList = argv[++i];
    } else if (arg == "--catalog" && i + 1 < argc) {
      catalogEndpoint = argv[++i];
    } else if (arg == "--name" && i + 1 < argc) {
      announceName = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--port n] [--http-port n] [--duration s]"
                   " [--query-budget n] [--bulk-budget n] [--query-cache n]"
                   " [--exit-on-goodbye] [--dump [interval_s]] [--stale s]"
                   " [--data-dir dir] [--fsync always|batch|off]"
                   " [--async-writer] [--role node|group|root]"
                   " [--upstream host:port[,...]] [--catalog host:port]"
                   " [--name label]\n";
      return 0;
    } else {
      std::cerr << "zerosum-aggd: unknown option " << arg
                << " (--help for usage)\n";
      return 2;
    }
  }

  aggregator::DaemonRole role;
  try {
    role = aggregator::daemonRoleFromString(roleName);
  } catch (const Error&) {
    std::cerr << "zerosum-aggd: --role must be node, group, or root\n";
    return 2;
  }

  std::unique_ptr<aggregator::TcpServer> server;
  try {
    server = std::make_unique<aggregator::TcpServer>(port);
  } catch (const Error& e) {
    std::cerr << "zerosum-aggd: " << e.what() << '\n';
    return 1;
  }
  const int listenPort = server->port();
  std::cout << "zerosum-aggd: " << aggregator::daemonRoleName(role)
            << " listening on 127.0.0.1:" << listenPort << std::endl;

  std::unique_ptr<aggregator::TcpServer> httpListener;
  if (httpPort >= 0) {
    try {
      httpListener = std::make_unique<aggregator::TcpServer>(httpPort);
    } catch (const Error& e) {
      std::cerr << "zerosum-aggd: " << e.what() << '\n';
      return 1;
    }
    std::cout << "zerosum-aggd: http on 127.0.0.1:" << httpListener->port()
              << std::endl;
  }

  if (asyncWriter && dataDir.empty()) {
    std::cerr << "zerosum-aggd: --async-writer requires --data-dir\n";
    return 2;
  }

  aggregator::Aggregator daemon(std::move(server), storeOptions);
  std::unique_ptr<tsdb::Engine> engine;
  std::unique_ptr<aggregator::TsdbWriter> writer;
  if (!dataDir.empty()) {
    try {
      tsdb::EngineOptions engineOptions;
      engineOptions.fineWindowSeconds = storeOptions.fineWindowSeconds;
      engineOptions.coarseFactor = storeOptions.coarseFactor;
      engineOptions.fsync = tsdb::fsyncPolicyFromString(fsyncMode);
      engine = std::make_unique<tsdb::Engine>(dataDir, engineOptions);
    } catch (const Error& e) {
      std::cerr << "zerosum-aggd: " << e.what() << '\n';
      return 1;
    }
    if (asyncWriter) {
      aggregator::WriterOptions writerOptions;
      writerOptions.threaded = true;
      writer = std::make_unique<aggregator::TsdbWriter>(engine.get(),
                                                        writerOptions);
      daemon.attachWriter(writer.get());
    } else {
      daemon.attachEngine(engine.get());
    }
    std::cout << "zerosum-aggd: persisting to " << dataDir << " (fsync="
              << tsdb::fsyncPolicyName(engine->options().fsync) << ", "
              << engine->segmentCount() << " segment(s), "
              << engine->counters().walReplayedBatches
              << " WAL batch(es) recovered)" << std::endl;
  }
  // --- federation wiring (DESIGN.md §11) --------------------------------
  // A root hosts the catalog (and lists itself in it, so groups resolve
  // their upstream the same way nodes do).  Everyone else may announce
  // to a catalog and forward local rollups upstream.
  aggregator::Catalog catalog;
  const std::string selfName = announceName.empty()
                                   ? "127.0.0.1:" + std::to_string(listenPort)
                                   : announceName;
  aggregator::CatalogEntry self;
  self.role = role;
  self.name = selfName;
  self.host = "127.0.0.1";
  self.port = listenPort;
  if (role == aggregator::DaemonRole::kRoot) {
    daemon.attachCatalog(&catalog);
  }

  const aggregator::DaemonRole parentRole =
      role == aggregator::DaemonRole::kNode ? aggregator::DaemonRole::kGroup
                                            : aggregator::DaemonRole::kRoot;
  std::vector<aggregator::CatalogEntry> staticUpstreams;
  for (std::size_t pos = 0; pos < upstreamList.size();) {
    const auto comma = upstreamList.find(',', pos);
    const auto end = comma == std::string::npos ? upstreamList.size() : comma;
    if (end > pos) {
      staticUpstreams.push_back(
          parseEndpoint(upstreamList.substr(pos, end - pos), parentRole));
    }
    pos = end + 1;
  }

  aggregator::CatalogEntry catalogAddr;
  const bool useCatalog =
      !catalogEndpoint.empty() && role != aggregator::DaemonRole::kRoot;
  if (useCatalog) {
    catalogAddr = parseEndpoint(catalogEndpoint, aggregator::DaemonRole::kRoot);
  }

  std::unique_ptr<aggregator::Forwarder> forwarder;
  if (!staticUpstreams.empty() || useCatalog) {
    aggregator::ForwarderOptions forwarderOptions;
    forwarderOptions.origin = selfName;
    forwarderOptions.hopCount =
        role == aggregator::DaemonRole::kNode ? 1 : 2;
    forwarder = std::make_unique<aggregator::Forwarder>(
        daemon,
        [](const aggregator::CatalogEntry& entry) {
          return std::make_unique<aggregator::TcpTransport>(entry.host,
                                                            entry.port, 250);
        },
        forwarderOptions);
    if (!staticUpstreams.empty()) {
      forwarder->setUpstreams(staticUpstreams, 0.0);
      std::cout << "zerosum-aggd: forwarding to " << staticUpstreams.size()
                << " static upstream(s)" << std::endl;
    }
  }

  std::unique_ptr<aggregator::CatalogAnnouncer> announcer;
  if (useCatalog) {
    aggregator::AnnouncerOptions announcerOptions;
    announcer = std::make_unique<aggregator::CatalogAnnouncer>(
        std::make_unique<aggregator::TcpTransport>(catalogAddr.host,
                                                   catalogAddr.port, 250),
        self, announcerOptions);
    std::cout << "zerosum-aggd: announcing to catalog " << catalogEndpoint
              << std::endl;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  const double start = nowSeconds();
  std::unique_ptr<aggregator::HttpServer> http;
  std::unique_ptr<aggregator::QueryService> queryService;
  if (httpListener) {
    http = std::make_unique<aggregator::HttpServer>(std::move(httpListener));
    trace::PromLabels labels{{"role", "daemon"}};
    const std::string job = env::getString("ZS_AGG_JOB", "");
    if (!job.empty()) {
      labels.insert(labels.begin(), {"job", job});
    }
    queryService =
        std::make_unique<aggregator::QueryService>(daemon, queryOptions);
    aggregator::mountDaemonEndpoints(
        *http, daemon, [start] { return nowSeconds() - start; },
        std::move(labels), queryService.get());
  }
  double nextDump = dumpInterval > 0.0 ? start + dumpInterval : 0.0;
  double nextResolve = 0.0;
  bool everSawSource = false;
  while (gStop == 0) {
    const double now = nowSeconds();
    const double elapsedNow = now - start;
    daemon.poll(elapsedNow);
    if (role == aggregator::DaemonRole::kRoot) {
      // The root lists itself in its own catalog, refreshed on the same
      // cadence announcers use, so group daemons resolve it like any
      // other member.
      if (catalog.find(self.name, elapsedNow) == std::nullopt ||
          now >= nextResolve) {
        self.generation = catalog.announce(self, elapsedNow).generation;
        nextResolve = now + 2.0;
      }
    } else if (forwarder && useCatalog && staticUpstreams.empty() &&
               now >= nextResolve) {
      // Membership comes from the catalog: re-resolve every couple of
      // seconds and hand the forwarder the live parent set (a no-op when
      // nothing changed, a ring rebuild + full resync when it did).
      aggregator::TcpTransport resolveTransport(catalogAddr.host,
                                                catalogAddr.port, 250);
      const auto entries = aggregator::resolveCatalog(
          resolveTransport,
          [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
          50);
      if (entries) {
        std::vector<aggregator::CatalogEntry> parents;
        for (const auto& entry : *entries) {
          if (entry.role == parentRole) {
            parents.push_back(entry);
          }
        }
        if (!parents.empty()) {
          forwarder->setUpstreams(parents, elapsedNow);
        }
      }
      nextResolve = now + 2.0;
    }
    if (forwarder) {
      forwarder->pump(elapsedNow);
    }
    if (announcer) {
      announcer->pump(elapsedNow);
    }
    if (http) {
      queryService->beginPoll(elapsedNow);
      http->poll();
    }
    everSawSource = everSawSource || !daemon.sources().empty();
    if (duration > 0.0 && now - start >= duration) {
      break;
    }
    if (exitOnGoodbye && everSawSource && daemon.allDeparted()) {
      break;
    }
    if (nextDump > 0.0 && now >= nextDump) {
      std::cout << daemon.dashboard(now - start) << std::endl;
      nextDump = now + dumpInterval;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  const double elapsed = nowSeconds() - start;
  if (engine) {
    // Orderly shutdown (signal, --duration, or goodbye): everything the
    // daemon acknowledged is sealed on disk before we report and exit.
    // Admission-deferred batches and the async writer's queue drain first
    // so the seal covers them too.
    try {
      daemon.drainBacklog(elapsed);
      engine->seal();
      std::cout << "zerosum-aggd: sealed " << dataDir << " ("
                << engine->segmentCount() << " segment(s), "
                << engine->counters().samplesAppended << " sample(s))\n";
    } catch (const Error& e) {
      std::cerr << "zerosum-aggd: seal failed: " << e.what() << '\n';
      return 1;
    }
  }
  const auto& c = daemon.counters();
  std::cout << daemon.dashboard(elapsed);
  std::cout << "zerosum-aggd: " << c.recordsIngested << " record(s) in "
            << c.batchesIngested << " batch(es) from "
            << daemon.sources().size() << " source(s); " << c.decodeErrors
            << " decode error(s), " << c.sourcesEvicted
            << " source(s) evicted, " << c.queriesServed
            << " query(ies) served, " << c.acksSent << " ack(s) sent, "
            << "pressure=" << aggregator::pressureLevelName(daemon.pressure())
            << '\n';
  if (forwarder) {
    const auto& f = forwarder->counters();
    std::cout << "zerosum-aggd: forwarded " << f.windowsForwarded
              << " window(s) in " << f.framesForwarded << " frame(s), "
              << f.resyncs << " resync(s), " << f.windowsSuppressed
              << " fine window(s) withheld under pressure\n";
  }
  if (role == aggregator::DaemonRole::kRoot) {
    std::cout << "zerosum-aggd: catalog held " << catalog.size()
              << " entry(ies), " << catalog.counters().registrations
              << " registration(s), " << catalog.counters().expired
              << " expired\n";
  }
  return 0;
}
