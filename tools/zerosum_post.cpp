// zerosum-post — post-processor for ZeroSum per-process logs (paper §3.6:
// the CSV dump "allowing for time-series analysis of the periodic data"
// and the P2P data that "can be post-processed to produce a heatmap like
// the one shown in Figure 5").
//
//   zerosum-post [options] <log> [<log> ...]
//
//   --charts          render LWP/HWT utilization-over-time bars (Figs 6-7)
//   --heatmap         build the P2P heatmap from all ranks' comm sections
//   --reorder <rpn>   rank-placement advice at <rpn> ranks per node
//   --pgm <path>      also write the heatmap as a PGM image
//   --trace-summary <trace.json>
//                     attribute the monitor's own overhead per subsystem
//                     from a ZS_TRACE_FILE Chrome trace (needs no logs)
//   --prom-dump <metrics.json>
//                     render a finished run's MetricsRegistry snapshot
//                     (ZS_METRICS_FILE) as Prometheus text exposition —
//                     the same writer behind the live daemon's
//                     GET /metrics (needs no logs)
//   --agg-query <json>
//                     send one JSON query to a live zerosum-aggd and
//                     print the response (needs no logs); the daemon
//                     address comes from --agg-host/--agg-port or
//                     ZS_AGG_HOST/ZS_AGG_PORT.  The request dialect, and
//                     the ops each entry point answers, are listed in
//                     src/aggregator/query.hpp.  Shorthand: a bare word w
//                     is the request {"op":"w"}.
//   --http-query <target>
//                     issue one HTTP/1.1 GET against a live zerosum-aggd
//                     --http-port plane and print the response body
//                     (needs no logs); the address comes from
//                     --agg-host/--agg-port (or ZS_AGG_HOST/ZS_AGG_PORT)
//                     pointing at the HTTP port.  Shorthand: stats
//                     expands to /api/stats, any other bare word w to
//                     /api/query?op=w; targets starting with '/' are
//                     sent verbatim, so query-service parameters work:
//                       --http-query '/api/query?op=range&metric=...'
//   --tsdb-query <json>
//                     answer one JSON query offline from a tsdb data dir
//                     (--data-dir or ZS_TSDB_DIR) written by
//                     zerosum-aggd --data-dir; no daemon needed, the dir
//                     is opened read-only.  Same request dialect and
//                     bare-word shorthand as --agg-query; the offline ops
//                     are listed in src/aggregator/query.hpp.
//   --data-dir <dir>  the tsdb data dir for --tsdb-query
#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/query.hpp"
#include "aggregator/tcp.hpp"
#include "analysis/heatmap.hpp"
#include "analysis/logparse.hpp"
#include "analysis/reorder.hpp"
#include "analysis/selfprofile.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "mpisim/recorder.hpp"
#include "trace/prometheus.hpp"
#include "tsdb/engine.hpp"

using namespace zerosum;

namespace {

void printSummaryRow(const analysis::ParsedLog& log) {
  std::cout << strings::padRight(std::to_string(log.rank), 6)
            << strings::padRight(log.hostname, 16)
            << strings::padLeft(strings::fixed(log.durationSeconds, 2), 10)
            << strings::padLeft(std::to_string(log.pid), 9) << "  ["
            << log.cpusAllowed.toList() << "]\n";
}

/// Renders utilization bars straight from a parsed CSV section.
/// Jiffies per sampling period, inferred from the time column spacing
/// (USER_HZ is 100 on every supported system).  Falls back to one second.
double inferJiffiesPerPeriod(const analysis::Table& table) {
  const auto times = table.numericColumn("time");
  std::vector<double> deltas;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double d = times[i] - times[i - 1];
    if (d > 1e-6) {
      deltas.push_back(d);
    }
  }
  if (deltas.empty()) {
    return 100.0;
  }
  std::sort(deltas.begin(), deltas.end());
  return 100.0 * deltas[deltas.size() / 2];
}

void renderBarsFromTable(const analysis::Table& table,
                         const std::string& idColumn,
                         const std::string& userColumn,
                         const std::string& systemColumn, double scale) {
  std::vector<std::string> ids = table.column(idColumn);
  std::vector<std::string> uniqueIds = ids;
  std::sort(uniqueIds.begin(), uniqueIds.end());
  uniqueIds.erase(std::unique(uniqueIds.begin(), uniqueIds.end()),
                  uniqueIds.end());
  constexpr int kWidth = 50;
  for (const auto& id : uniqueIds) {
    const analysis::Table rows = table.filter(idColumn, id);
    std::cout << "  " << idColumn << ' ' << id << ":\n";
    const auto times = rows.numericColumn("time");
    const auto user = rows.numericColumn(userColumn);
    const auto system = rows.numericColumn(systemColumn);
    for (std::size_t i = 0; i < times.size(); ++i) {
      const int userCols = std::min(
          kWidth, static_cast<int>(user[i] / scale * kWidth + 0.5));
      const int sysCols = std::min(
          kWidth - userCols,
          static_cast<int>(system[i] / scale * kWidth + 0.5));
      std::string bar(static_cast<std::size_t>(userCols), '#');
      bar.append(static_cast<std::size_t>(sysCols), '+');
      bar.append(static_cast<std::size_t>(kWidth - userCols - sysCols), '.');
      std::cout << "    t=" << strings::padLeft(strings::fixed(times[i], 1), 7)
                << " |" << bar << "|\n";
    }
  }
}

/// The request --agg-query and --tsdb-query send: a bare word w is
/// {"op":"w"}, anything else goes out as given.
std::string requestOf(const std::string& text) {
  const bool word =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
      });
  return word ? "{\"op\":\"" + text + "\"}" : text;
}

}  // namespace

int main(int argc, char** argv) {
  bool charts = false;
  bool heatmap = false;
  int reorderRanksPerNode = 0;
  std::string pgmPath;
  std::string traceSummaryPath;
  std::string promDumpPath;
  std::string aggQuery;
  std::string httpQuery;
  std::string tsdbQuery;
  std::string tsdbDir = env::getString("ZS_TSDB_DIR", "");
  std::string aggHost = env::getString("ZS_AGG_HOST", "127.0.0.1");
  int aggPort = static_cast<int>(env::getInt("ZS_AGG_PORT", 8990));
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--charts") {
      charts = true;
    } else if (arg == "--heatmap") {
      heatmap = true;
    } else if (arg == "--reorder" && i + 1 < argc) {
      reorderRanksPerNode = std::atoi(argv[++i]);
    } else if (arg == "--pgm" && i + 1 < argc) {
      pgmPath = argv[++i];
    } else if (arg == "--trace-summary" && i + 1 < argc) {
      traceSummaryPath = argv[++i];
    } else if (arg == "--prom-dump" && i + 1 < argc) {
      promDumpPath = argv[++i];
    } else if (arg == "--agg-query" && i + 1 < argc) {
      aggQuery = argv[++i];
    } else if (arg == "--http-query" && i + 1 < argc) {
      httpQuery = argv[++i];
    } else if (arg == "--tsdb-query" && i + 1 < argc) {
      tsdbQuery = argv[++i];
    } else if (arg == "--data-dir" && i + 1 < argc) {
      tsdbDir = argv[++i];
    } else if (arg == "--agg-host" && i + 1 < argc) {
      aggHost = argv[++i];
    } else if (arg == "--agg-port" && i + 1 < argc) {
      aggPort = std::atoi(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--charts] [--heatmap] [--reorder rpn] [--pgm path] "
                   "[--trace-summary trace.json] [--prom-dump metrics.json] "
                   "[--agg-query json [--agg-host h] [--agg-port p]] "
                   "[--http-query target] "
                   "[--tsdb-query json --data-dir dir] <log>...\n";
      return 0;
    } else {
      paths.push_back(arg);
    }
  }

  if (!promDumpPath.empty()) {
    std::ifstream in(promDumpPath, std::ios::binary);
    if (!in) {
      std::cerr << "zerosum-post: cannot open " << promDumpPath << '\n';
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      trace::writePrometheus(std::cout, trace::parseMetricsJson(text.str()));
    } catch (const Error& e) {
      std::cerr << "zerosum-post: " << promDumpPath << ": " << e.what()
                << '\n';
      return 1;
    }
    return 0;
  }

  if (!tsdbQuery.empty()) {
    if (tsdbDir.empty()) {
      std::cerr << "zerosum-post: --tsdb-query needs --data-dir (or "
                   "ZS_TSDB_DIR)\n";
      return 2;
    }
    try {
      tsdb::EngineOptions options;
      options.readOnly = true;
      const tsdb::Engine engine(tsdbDir, options);
      std::cout << aggregator::runQuery(engine, requestOf(tsdbQuery));
    } catch (const Error& e) {
      std::cerr << "zerosum-post: " << tsdbDir << ": " << e.what() << '\n';
      return 1;
    }
    return 0;
  }

  if (!httpQuery.empty()) {
    // Bare words: stats is the /api/stats route, any other word w the
    // read plane's op w; anything starting with '/' goes out verbatim so
    // arbitrary query parameters work.
    std::string target = httpQuery;
    if (target.empty() || target[0] != '/') {
      target = target == "stats" ? std::string("/api/stats")
                                 : "/api/query?op=" + target;
    }
    aggregator::TcpTransport transport(aggHost, aggPort);
    if (!transport.connect()) {
      std::cerr << "zerosum-post: cannot connect to " << aggHost << ':'
                << aggPort << " (is zerosum-aggd --http-port running?)\n";
      return 1;
    }
    const std::string request = "GET " + target +
                                " HTTP/1.1\r\nHost: " + aggHost +
                                "\r\nConnection: close\r\n\r\n";
    if (!transport.send(request)) {
      std::cerr << "zerosum-post: send failed to " << aggHost << ':'
                << aggPort << '\n';
      return 1;
    }
    // Connection: close — read until the server closes, then split the
    // response at the header/body boundary.
    std::string raw;
    for (int spins = 0; spins < 500; ++spins) {
      if (!transport.receive(raw)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const std::size_t headerEnd = raw.find("\r\n\r\n");
    if (raw.compare(0, 5, "HTTP/") != 0 ||
        headerEnd == std::string::npos) {
      std::cerr << "zerosum-post: malformed HTTP response from " << aggHost
                << ':' << aggPort << '\n';
      return 1;
    }
    const std::string statusLine = raw.substr(0, raw.find("\r\n"));
    const int status =
        std::atoi(statusLine.c_str() + statusLine.find(' ') + 1);
    std::cout << raw.substr(headerEnd + 4);
    if (raw.size() == headerEnd + 4) {
      std::cout << '\n';
    }
    return status >= 200 && status < 300 ? 0 : 1;
  }

  if (!aggQuery.empty()) {
    aggregator::TcpTransport transport(aggHost, aggPort);
    const auto response = aggregator::requestOverTransport(
        transport, requestOf(aggQuery),
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); });
    if (!response) {
      std::cerr << "zerosum-post: no response from " << aggHost << ':'
                << aggPort << " (is zerosum-aggd running?)\n";
      return 1;
    }
    // A dashboard response carries rendered text; print it as text.
    bool printed = false;
    try {
      const json::Value doc = json::parse(*response);
      if (const json::Value* text = doc.find("text")) {
        std::cout << text->asString();
        printed = true;
      }
    } catch (const Error&) {
      // fall through to raw output
    }
    if (!printed) {
      std::cout << *response;
    }
    return 0;
  }

  if (!traceSummaryPath.empty()) {
    std::ifstream in(traceSummaryPath);
    if (!in) {
      std::cerr << "zerosum-post: cannot open " << traceSummaryPath << '\n';
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const analysis::SelfProfile profile =
          analysis::attributeOverheadFromChromeTrace(text.str());
      std::cout << analysis::renderAttribution(profile);
    } catch (const Error& e) {
      std::cerr << "zerosum-post: " << traceSummaryPath << ": " << e.what()
                << '\n';
      return 1;
    }
    if (paths.empty()) {
      return 0;  // a trace summary needs no log files
    }
    std::cout << '\n';
  }

  if (paths.empty()) {
    std::cerr << "zerosum-post: no log files given (--help for usage)\n";
    return 2;
  }

  std::vector<analysis::ParsedLog> logs;
  for (const auto& path : paths) {
    try {
      logs.push_back(analysis::parseLogFile(path));
    } catch (const Error& e) {
      std::cerr << "zerosum-post: " << path << ": " << e.what() << '\n';
      return 1;
    }
  }

  std::cout << "Parsed " << logs.size() << " rank log(s):\n";
  std::cout << strings::padRight("rank", 6) << strings::padRight("node", 16)
            << strings::padLeft("duration", 10) << strings::padLeft("pid", 9)
            << "  cpus\n";
  for (const auto& log : logs) {
    printSummaryRow(log);
  }

  if (charts) {
    for (const auto& log : logs) {
      std::cout << "\n--- rank " << log.rank
                << ": LWP utilization over time (Figure 6 view) ---\n";
      if (log.hasSection("LWP time series")) {
        // LWP deltas are jiffies per period; a full bar is one period's
        // worth of jiffies at the log's sampling rate.
        const auto& table = log.section("LWP time series");
        renderBarsFromTable(table, "tid", "utime_delta", "stime_delta",
                            inferJiffiesPerPeriod(table));
      }
      std::cout << "\n--- rank " << log.rank
                << ": HWT utilization over time (Figure 7 view) ---\n";
      if (log.hasSection("HWT time series")) {
        renderBarsFromTable(log.section("HWT time series"), "cpu",
                            "user_pct", "system_pct", 100.0);
      }
    }
  }

  if (heatmap || reorderRanksPerNode > 0 || !pgmPath.empty()) {
    int worldSize = 0;
    for (const auto& log : logs) {
      worldSize = std::max(worldSize, log.rank + 1);
      if (log.hasSection("MPI point-to-point")) {
        for (const auto& peer :
             log.section("MPI point-to-point").column("peer")) {
          const auto v = strings::toI64(peer);
          if (v) {
            worldSize = std::max(worldSize, static_cast<int>(*v) + 1);
          }
        }
      }
    }
    if (worldSize == 0) {
      std::cerr << "zerosum-post: no comm data in the given logs\n";
      return 1;
    }
    mpisim::CommMatrix matrix(worldSize);
    for (const auto& log : logs) {
      if (!log.hasSection("MPI point-to-point")) {
        continue;
      }
      const auto sends =
          log.section("MPI point-to-point").filter("direction", "send");
      const auto peers = sends.column("peer");
      const auto bytes = sends.numericColumn("bytes");
      for (std::size_t i = 0; i < peers.size(); ++i) {
        matrix.addSend(log.rank, static_cast<int>(*strings::toI64(peers[i])),
                       static_cast<std::uint64_t>(bytes[i]));
      }
    }
    if (heatmap) {
      std::cout << "\n--- P2P heatmap (Figure 5 view) ---\n"
                << analysis::renderAscii(matrix, {});
    }
    if (!pgmPath.empty()) {
      analysis::writePgmFile(matrix, pgmPath);
      std::cout << "wrote " << pgmPath << '\n';
    }
    if (reorderRanksPerNode > 0) {
      std::cout << '\n'
                << analysis::renderReorderAdvice(matrix,
                                                 reorderRanksPerNode);
    }
  }
  return 0;
}
