#include "aggregator/http.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "aggregator/daemon.hpp"
#include "aggregator/queryservice.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/monotime.hpp"

namespace zerosum::aggregator {

namespace {

/// End of the header block: two consecutive line terminators, where a
/// terminator is "\r\n" or a bare "\n" (lenient parse, strict emit).
std::size_t findHeaderEnd(const std::string& buffer) {
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    if (buffer[i] != '\n') continue;
    std::size_t j = i + 1;
    if (j < buffer.size() && buffer[j] == '\r') ++j;
    if (j < buffer.size() && buffer[j] == '\n') return j + 1;
  }
  return std::string::npos;
}

std::string stripCr(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

std::string toLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return char(std::tolower(c)); });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

int hexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string urlDecode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size() &&
               hexNibble(in[i + 1]) >= 0 && hexNibble(in[i + 2]) >= 0) {
      out.push_back(static_cast<char>(hexNibble(in[i + 1]) * 16 +
                                      hexNibble(in[i + 2])));
      i += 2;
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

}  // namespace

std::map<std::string, std::string> parseQueryString(
    const std::string& target) {
  std::map<std::string, std::string> out;
  const std::size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    return out;
  }
  std::size_t pos = qmark + 1;
  while (pos <= target.size()) {
    std::size_t amp = target.find('&', pos);
    if (amp == std::string::npos) amp = target.size();
    if (amp > pos) {
      const std::string pair = target.substr(pos, amp - pos);
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        out[urlDecode(pair)] = "";
      } else {
        out[urlDecode(pair.substr(0, eq))] = urlDecode(pair.substr(eq + 1));
      }
    }
    pos = amp + 1;
  }
  return out;
}

const char* httpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 414: return "URI Too Long";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

HttpServer::HttpServer(std::unique_ptr<TransportServer> server,
                       HttpLimits limits)
    : server_(std::move(server)), limits_(limits) {
  if (!server_) {
    throw ConfigError("HttpServer requires a transport server");
  }
  auto& registry = trace::MetricsRegistry::instance();
  metricRequests_ = &registry.counter("zs.http.requests");
  metricErrors_ = &registry.counter("zs.http.errors");
}

void HttpServer::handle(const std::string& method, const std::string& path,
                        HttpHandler handler) {
  handlers_[{method, path}] = std::move(handler);
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) {
  const auto it = handlers_.find({request.method, request.path});
  if (it != handlers_.end()) {
    try {
      return it->second(request);
    } catch (const std::exception& e) {
      log::warn() << "http: handler for " << request.method << " "
                  << request.path << " threw: " << e.what();
      return {500, "text/plain; charset=utf-8", "internal error\n"};
    }
  }
  // Path known under another method -> 405, otherwise 404.
  const bool pathKnown = std::any_of(
      handlers_.begin(), handlers_.end(),
      [&](const auto& kv) { return kv.first.second == request.path; });
  if (pathKnown) {
    return {405, "text/plain; charset=utf-8", "method not allowed\n"};
  }
  return {404, "text/plain; charset=utf-8", "not found\n"};
}

void HttpServer::respond(std::uint64_t connection, const HttpRequest* request,
                         const HttpResponse& response, bool keepAlive) {
  (void)request;
  // Status line, headers and body in one string, sized up front (the
  // extra headers are a Retry-After at most).  Appends rather than `+`:
  // gcc 12 at -O3 reports false -Wrestrict positives on std::string
  // concatenation.
  std::string out;
  out.reserve(256 + response.contentType.size() + response.body.size());
  out.append("HTTP/1.1 ")
      .append(std::to_string(response.status))
      .append(" ")
      .append(httpStatusReason(response.status))
      .append("\r\nContent-Type: ")
      .append(response.contentType)
      .append("\r\nContent-Length: ")
      .append(std::to_string(response.body.size()))
      .append("\r\nConnection: ")
      .append(keepAlive ? "keep-alive" : "close")
      .append("\r\n");
  for (const auto& [name, value] : response.headers) {
    out.append(name).append(": ").append(value).append("\r\n");
  }
  out.append("\r\n").append(response.body.str());
  server_->send(connection, out);
  if (response.status >= 400) {
    ++counters_.errors;
    metricErrors_->add();
  }
}

bool HttpServer::serveBuffered(std::uint64_t connection, Conn& conn) {
  for (;;) {
    const std::size_t headerEnd = findHeaderEnd(conn.buffer);
    if (headerEnd == std::string::npos) {
      // Incomplete: wait for more bytes, unless the partial block already
      // exceeds what a legal request could occupy.
      const std::size_t firstLine = conn.buffer.find('\n');
      if (firstLine == std::string::npos &&
          conn.buffer.size() > limits_.maxRequestLineBytes) {
        ++counters_.parseErrors;
        respond(connection, nullptr,
                {414, "text/plain; charset=utf-8", "request line too long\n"},
                false);
        return false;
      }
      if (conn.buffer.size() > limits_.maxRequestLineBytes +
                                   limits_.maxHeaderBytes) {
        ++counters_.parseErrors;
        respond(connection, nullptr,
                {431, "text/plain; charset=utf-8", "header block too large\n"},
                false);
        return false;
      }
      return true;
    }

    // --- request line ------------------------------------------------------
    std::size_t lineEnd = conn.buffer.find('\n');
    std::string requestLine = stripCr(conn.buffer.substr(0, lineEnd));
    if (requestLine.size() > limits_.maxRequestLineBytes) {
      ++counters_.parseErrors;
      respond(connection, nullptr,
              {414, "text/plain; charset=utf-8", "request line too long\n"},
              false);
      return false;
    }
    if (headerEnd - lineEnd > limits_.maxHeaderBytes) {
      ++counters_.parseErrors;
      respond(connection, nullptr,
              {431, "text/plain; charset=utf-8", "header block too large\n"},
              false);
      return false;
    }
    HttpRequest request;
    std::string version;
    {
      const std::size_t sp1 = requestLine.find(' ');
      const std::size_t sp2 =
          sp1 == std::string::npos ? std::string::npos
                                   : requestLine.find(' ', sp1 + 1);
      if (sp1 == std::string::npos || sp2 == std::string::npos ||
          sp1 == 0 || sp2 == sp1 + 1 ||
          requestLine.find(' ', sp2 + 1) != std::string::npos) {
        ++counters_.parseErrors;
        respond(connection, nullptr,
                {400, "text/plain; charset=utf-8", "malformed request line\n"},
                false);
        return false;
      }
      request.method = requestLine.substr(0, sp1);
      request.target = requestLine.substr(sp1 + 1, sp2 - sp1 - 1);
      version = requestLine.substr(sp2 + 1);
    }
    if (version != "HTTP/1.1" && version != "HTTP/1.0") {
      ++counters_.parseErrors;
      respond(connection, nullptr,
              {400, "text/plain; charset=utf-8", "unsupported version\n"},
              false);
      return false;
    }
    if (request.target.empty() || request.target[0] != '/') {
      ++counters_.parseErrors;
      respond(connection, nullptr,
              {400, "text/plain; charset=utf-8", "malformed target\n"}, false);
      return false;
    }
    request.path = request.target.substr(0, request.target.find('?'));

    // --- headers -----------------------------------------------------------
    std::size_t pos = lineEnd + 1;
    while (pos < headerEnd) {
      std::size_t eol = conn.buffer.find('\n', pos);
      std::string line = stripCr(conn.buffer.substr(pos, eol - pos));
      pos = eol + 1;
      if (line.empty()) break;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos || colon == 0) {
        ++counters_.parseErrors;
        respond(connection, nullptr,
                {400, "text/plain; charset=utf-8", "malformed header\n"},
                false);
        return false;
      }
      request.headers[toLower(line.substr(0, colon))] =
          trim(line.substr(colon + 1));
    }

    // --- body --------------------------------------------------------------
    if (request.headers.count("transfer-encoding") != 0) {
      ++counters_.parseErrors;
      respond(connection, nullptr,
              {501, "text/plain; charset=utf-8",
               "chunked transfer not supported\n"},
              false);
      return false;
    }
    std::size_t contentLength = 0;
    if (const auto it = request.headers.find("content-length");
        it != request.headers.end()) {
      try {
        const long long parsed = std::stoll(it->second);
        if (parsed < 0) throw std::invalid_argument("negative");
        contentLength = static_cast<std::size_t>(parsed);
      } catch (const std::exception&) {
        ++counters_.parseErrors;
        respond(connection, nullptr,
                {400, "text/plain; charset=utf-8", "bad content-length\n"},
                false);
        return false;
      }
      if (contentLength > limits_.maxBodyBytes) {
        ++counters_.parseErrors;
        respond(connection, nullptr,
                {413, "text/plain; charset=utf-8", "body too large\n"}, false);
        return false;
      }
    }
    if (conn.buffer.size() - headerEnd < contentLength) {
      return true;  // body still in flight
    }
    request.body = conn.buffer.substr(headerEnd, contentLength);
    conn.buffer.erase(0, headerEnd + contentLength);

    // --- dispatch ----------------------------------------------------------
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // Connection header overrides either way.
    bool keepAlive = version == "HTTP/1.1";
    if (const auto it = request.headers.find("connection");
        it != request.headers.end()) {
      const std::string value = toLower(it->second);
      if (value == "close") keepAlive = false;
      if (value == "keep-alive") keepAlive = true;
    }
    ++counters_.requests;
    metricRequests_->add();
    respond(connection, &request, dispatch(request), keepAlive);
    if (!keepAlive) {
      return false;
    }
    // Loop: pipelined requests may already be buffered.
  }
}

void HttpServer::poll() { poll(monotonicSeconds()); }

void HttpServer::poll(double nowSeconds) {
  for (auto& delivery : server_->poll()) {
    if (delivery.opened) {
      if (limits_.maxConnections > 0 &&
          connections_.size() >= limits_.maxConnections) {
        // Full house: answer with a graceful 503 and close instead of
        // silently holding (or dropping) the connection.  A load
        // balancer or dashboard retries against a less loaded replica.
        ++counters_.connectionsRejected;
        respond(delivery.connection, nullptr,
                {503, "text/plain; charset=utf-8",
                 "server connection limit reached\n"},
                false);
        server_->disconnect(delivery.connection);
        continue;
      }
      ++counters_.connectionsOpened;
    } else if (connections_.find(delivery.connection) == connections_.end()) {
      // Notice for a connection we already tore down — typically the
      // peer's close racing our own disconnect.  Counting it again would
      // double-book connectionsClosed.
      continue;
    }
    auto& conn = connections_[delivery.connection];
    conn.lastActivitySeconds = nowSeconds;
    bool keep = true;
    if (!delivery.bytes.empty()) {
      conn.buffer.append(delivery.bytes);
      keep = serveBuffered(delivery.connection, conn);
    }
    if (!keep) {
      server_->disconnect(delivery.connection);
      connections_.erase(delivery.connection);
      ++counters_.connectionsClosed;
      continue;
    }
    if (delivery.closed) {
      connections_.erase(delivery.connection);
      ++counters_.connectionsClosed;
    }
  }
  if (limits_.idleTimeoutSeconds > 0.0) {
    // Reap connections with no traffic inside the idle horizon — an
    // abandoned keep-alive tab must not pin a slot against the cap.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (nowSeconds - it->second.lastActivitySeconds >
          limits_.idleTimeoutSeconds) {
        server_->disconnect(it->first);
        it = connections_.erase(it);
        ++counters_.idleClosed;
        ++counters_.connectionsClosed;
      } else {
        ++it;
      }
    }
  }
}

namespace {

/// Maps a finished QueryResult onto the HTTP surface: status passes
/// through, shed queries gain a Retry-After header (integer seconds,
/// rounded up, per RFC 9110).
HttpResponse toHttpResponse(QueryResult&& result) {
  HttpResponse response{result.status, "application/json",
                        std::move(result.body), {}};
  if (result.status == 429 && result.retryAfterSeconds > 0.0) {
    response.headers["Retry-After"] = std::to_string(
        static_cast<long long>(std::ceil(result.retryAfterSeconds)));
  }
  return response;
}

/// Priority class of one request: `class=bulk` (GET param) or an
/// `X-Query-Class: bulk` header selects bulk; everything else is live.
QueryClass classOf(const HttpRequest& request,
                   const std::map<std::string, std::string>& params) {
  if (const auto it = params.find("class");
      it != params.end() && it->second == "bulk") {
    return QueryClass::kBulk;
  }
  if (const auto it = request.headers.find("x-query-class");
      it != request.headers.end() && it->second == "bulk") {
    return QueryClass::kBulk;
  }
  return QueryClass::kLive;
}

}  // namespace

void mountDaemonEndpoints(HttpServer& http, Aggregator& daemon,
                          std::function<double()> now,
                          trace::PromLabels labels,
                          QueryService* queryService) {
  http.handle("GET", "/metrics", [labels](const HttpRequest&) {
    HttpResponse response;
    response.contentType = "text/plain; version=0.0.4; charset=utf-8";
    response.body = trace::renderPrometheus(
        trace::MetricsRegistry::instance().snapshot(), labels);
    return response;
  });

  auto healthJson = [&daemon, now](bool ready) {
    std::size_t active = 0, stale = 0, departed = 0;
    for (const SourceInfo& info : daemon.sources()) {
      switch (info.state) {
        case SourceState::kActive: ++active; break;
        case SourceState::kStale: ++stale; break;
        case SourceState::kDeparted: ++departed; break;
      }
    }
    std::string body;
    json::Writer w(body);
    w.beginObject()
        .field("ready", ready)
        .field("pressure", pressureLevelName(daemon.pressure()))
        .field("ingest_backlog", std::uint64_t{daemon.ingestBacklog()})
        .field("time_seconds", now())
        .key("sources")
        .beginObject()
        .field("active", std::uint64_t{active})
        .field("stale", std::uint64_t{stale})
        .field("departed", std::uint64_t{departed})
        .key("by_hop")
        .beginObject();
    // Fan-in view: how many sources arrived direct (hop 0) vs through
    // each tier of the federation tree.
    for (const auto& [hops, count] : daemon.sourcesByHop()) {
      w.field(std::to_string(hops), std::uint64_t{count});
    }
    w.endObject()
        .endObject()
        .key("fanin")
        .beginObject()
        .field("forward_frames", daemon.counters().forwardFrames)
        .field("forward_windows", daemon.counters().forwardWindows)
        .field("merge_conflicts", daemon.counters().forwardConflicts)
        .field("catalog_announces", daemon.counters().catalogAnnounces)
        .field("clock_regressions", daemon.counters().clockRegressions)
        .endObject()
        .endObject();
    body.push_back('\n');
    return body;
  };

  http.handle("GET", "/healthz", [healthJson](const HttpRequest&) {
    // Liveness: answering at all is the signal, so always 200.
    return HttpResponse{200, "application/json", healthJson(true)};
  });

  http.handle("GET", "/readyz", [&daemon, healthJson](const HttpRequest&) {
    // Readiness: an overloaded daemon asks scrapers/load balancers to
    // back off until the backlog drains.
    const bool ready = daemon.pressure() != PressureLevel::kOverloaded;
    return HttpResponse{ready ? 200 : 503, "application/json",
                        healthJson(ready)};
  });

  http.handle("GET", "/dashboard", [&daemon, now](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8",
                        daemon.dashboard(now())};
  });

  if (queryService == nullptr) {
    http.handle("POST", "/query", [&daemon](const HttpRequest& request) {
      // The wire's answer (query.hpp): errors are JSON error documents.
      return HttpResponse{200, "application/json", daemon.query(request.body)};
    });
    return;
  }

  // --- read plane (DESIGN.md §12): snapshot-isolated, cached, shed ---------
  http.handle("POST", "/query",
              [queryService, now](const HttpRequest& request) {
                const QueryClass cls = classOf(request, {});
                return toHttpResponse(
                    queryService->execute(request.body, cls, now()));
              });

  http.handle("GET", "/api/query",
              [queryService, now](const HttpRequest& request) {
                auto params = parseQueryString(request.target);
                const QueryClass cls = classOf(request, params);
                std::string op;
                if (const auto it = params.find("op"); it != params.end()) {
                  op = it->second;
                  params.erase(it);
                }
                params.erase("class");
                return toHttpResponse(
                    queryService->executeParams(op, params, cls, now()));
              });

  http.handle("GET", "/api/stats",
              [queryService, now](const HttpRequest&) {
                return HttpResponse{200, "application/json",
                                    queryService->statsJson(now()), {}};
              });
}

}  // namespace zerosum::aggregator
