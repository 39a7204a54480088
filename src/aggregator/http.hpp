// Minimal persistent HTTP/1.1 server layered over TransportServer — the
// aggregation daemon's live telemetry plane (and the building block the
// ROADMAP's high-traffic query/dashboard service grows from).
//
// Scope is deliberately small: request-line + headers + Content-Length
// bodies, keep-alive and pipelining, bounded request sizes, no chunked
// transfer, no TLS.  Because it speaks through the same TransportServer
// interface as the wire protocol, the full parser runs identically over
// loopback TCP (zerosum-aggd --http-port) and the deterministic
// in-memory PipeHub (tests drive byte-split and concurrency edge cases
// without sockets).
//
// Responses are written in one send(); a request that violates a bound
// (oversized request line / header block / body) or the grammar gets a
// 4xx and the connection is closed — framing can no longer be trusted.
//
// mountDaemonEndpoints() wires the standard endpoint set:
//   GET  /metrics    Prometheus text exposition of the MetricsRegistry
//   GET  /healthz    liveness + pressure/backlog/source counts (JSON)
//   GET  /readyz     readiness: 503 while the daemon is overloaded
//   GET  /dashboard  the existing text dashboard
//   POST /query      the wire's JSON query answer (aggregator/query.hpp)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "aggregator/transport.hpp"
#include "common/shared_text.hpp"
#include "trace/metrics.hpp"
#include "trace/prometheus.hpp"

namespace zerosum::aggregator {

class Aggregator;
class QueryService;

/// Decodes the query-string half of a request target ("/p?a=1&b=x%20y")
/// into decoded key/value pairs (percent-escapes and '+' for space;
/// duplicate keys resolve to the last value).  Exposed for tests and for
/// tools that build GET-form queries.
[[nodiscard]] std::map<std::string, std::string> parseQueryString(
    const std::string& target);

struct HttpRequest {
  std::string method;  ///< as received (method names are case-sensitive)
  std::string target;  ///< full request target, query string included
  std::string path;    ///< target up to '?'
  /// Header names lowercased; duplicate names resolve to the last value.
  std::map<std::string, std::string> headers;
  std::string body;
};

struct HttpResponse {
  HttpResponse() = default;
  HttpResponse(int status_, std::string contentType_, SharedText body_,
               std::map<std::string, std::string> headers_ = {})
      : status(status_),
        contentType(std::move(contentType_)),
        body(std::move(body_)),
        headers(std::move(headers_)) {}

  int status = 200;
  std::string contentType = "text/plain; charset=utf-8";
  /// Shared, so a cached query answer reaches the wire with one copy.
  SharedText body;
  /// Extra response headers (e.g. Retry-After on a 429), emitted after
  /// the standard set.  Names are sent as given.
  std::map<std::string, std::string> headers;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpLimits {
  std::size_t maxRequestLineBytes = 8 * 1024;
  std::size_t maxHeaderBytes = 16 * 1024;  ///< whole header block
  std::size_t maxBodyBytes = 1 * 1024 * 1024;
  /// Connection hygiene for many concurrent readers: a hard cap on
  /// simultaneous connections (excess connects get a graceful 503 +
  /// close) and an idle timeout so an abandoned dashboard tab cannot
  /// pin a server slot forever.  0 disables either bound.
  std::size_t maxConnections = 128;
  double idleTimeoutSeconds = 60.0;
};

struct HttpServerCounters {
  std::uint64_t requests = 0;       ///< well-formed requests dispatched
  std::uint64_t errors = 0;         ///< responses with status >= 400
  std::uint64_t parseErrors = 0;    ///< malformed/oversized -> closed
  std::uint64_t connectionsOpened = 0;
  std::uint64_t connectionsClosed = 0;
  std::uint64_t connectionsRejected = 0;  ///< over maxConnections -> 503
  std::uint64_t idleClosed = 0;           ///< reaped by the idle timeout
};

[[nodiscard]] const char* httpStatusReason(int status);

class HttpServer {
 public:
  explicit HttpServer(std::unique_ptr<TransportServer> server,
                      HttpLimits limits = {});

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact (method, path) matches.  A path
  /// registered for some other method answers 405; unknown paths 404.
  void handle(const std::string& method, const std::string& path,
              HttpHandler handler);

  /// Drains the transport, parses complete requests, dispatches, and
  /// sends responses.  Call from the owner's event loop alongside the
  /// daemon's poll().  `nowSeconds` drives the idle-timeout sweep (any
  /// monotone clock — the zero-argument form uses the process monotonic
  /// clock); pass a consistent basis across calls.
  void poll();
  void poll(double nowSeconds);

  [[nodiscard]] const HttpServerCounters& counters() const {
    return counters_;
  }

 private:
  struct Conn {
    std::string buffer;
    double lastActivitySeconds = 0.0;
  };

  /// Parses and serves every complete request at the head of `buffer`;
  /// false when the connection must be closed (error or Connection:
  /// close).
  bool serveBuffered(std::uint64_t connection, Conn& conn);
  void respond(std::uint64_t connection, const HttpRequest* request,
               const HttpResponse& response, bool keepAlive);
  HttpResponse dispatch(const HttpRequest& request);

  std::unique_ptr<TransportServer> server_;
  HttpLimits limits_;
  HttpServerCounters counters_;
  std::map<std::uint64_t, Conn> connections_;
  /// (method, path) -> handler.
  std::map<std::pair<std::string, std::string>, HttpHandler> handlers_;
  trace::Counter* metricRequests_ = nullptr;
  trace::Counter* metricErrors_ = nullptr;
};

/// Mounts the standard daemon endpoint set (see file header) onto
/// `http`.  `now` supplies the daemon clock for /dashboard and /healthz;
/// `labels` are attached to every /metrics sample ({job,role}).  The
/// daemon must outlive the server.
///
/// With a QueryService (DESIGN.md §12), the read plane is mounted too:
///   GET  /api/query  GET-form queries (?op=...&metric=...); `class=bulk`
///                    or an `X-Query-Class: bulk` header selects the
///                    bulk priority class (op=export is always bulk)
///   GET  /api/stats  the service's own counters (never cached or shed)
/// and POST /query routes through the service instead of the one-shot
/// responder — shed queries answer 429 with a Retry-After header.
void mountDaemonEndpoints(HttpServer& http, Aggregator& daemon,
                          std::function<double()> now,
                          trace::PromLabels labels,
                          QueryService* queryService = nullptr);

}  // namespace zerosum::aggregator
