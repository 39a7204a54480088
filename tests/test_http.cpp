// The HTTP telemetry plane: request parsing over byte-split frames,
// bounds and error paths, keep-alive/pipelining, the mounted daemon
// endpoint set (/metrics, /healthz, /readyz, /dashboard, /query), and
// one loopback-TCP end-to-end check, and a seeded mutation run of
// request streams against the mounted daemon.  Everything except the TCP
// test runs over the deterministic PipeHub, so byte-level edge cases need
// no sockets.
#include "aggregator/http.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aggregator/daemon.hpp"
#include "aggregator/queryservice.hpp"
#include "aggregator/tcp.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "common/error.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "trace/metrics.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

/// Every test starts from a clean registry: HttpServer and Aggregator
/// resolve metric handles in their constructors, so construct them
/// after SetUp has run.
class HttpTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::MetricsRegistry::instance().reset(); }
  void TearDown() override { trace::MetricsRegistry::instance().reset(); }
};

/// A raw byte client on the pipe hub; collects whatever the server wrote
/// back after each poll.
struct PipeClient {
  explicit PipeClient(PipeHub& hub) : transport(hub.makeClientTransport()) {
    EXPECT_TRUE(transport->connect());
  }
  void send(const std::string& bytes) { EXPECT_TRUE(transport->send(bytes)); }
  /// Polls the server and drains this client's receive pipe.
  std::string exchange(HttpServer& server, int polls = 3) {
    std::string out;
    for (int i = 0; i < polls; ++i) {
      server.poll();
      transport->receive(out);
    }
    return out;
  }
  std::unique_ptr<Transport> transport;
};

int statusOf(const std::string& response) {
  // "HTTP/1.1 NNN Reason\r\n..."
  if (response.size() < 12 || response.rfind("HTTP/1.1 ", 0) != 0) {
    return -1;
  }
  return std::atoi(response.c_str() + 9);
}

std::string bodyOf(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// Splits a byte stream of back-to-back responses using Content-Length.
std::vector<std::string> splitResponses(const std::string& stream) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t headerEnd = stream.find("\r\n\r\n", pos);
    if (headerEnd == std::string::npos) {
      break;
    }
    const std::size_t lenAt = stream.find("Content-Length: ", pos);
    EXPECT_LT(lenAt, headerEnd);
    const std::size_t lenEnd = stream.find('\r', lenAt);
    const std::size_t length =
        std::stoul(stream.substr(lenAt + 16, lenEnd - lenAt - 16));
    const std::size_t end = headerEnd + 4 + length;
    out.push_back(stream.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

/// An HttpServer over a fresh hub with one echo-style handler mounted.
struct EchoPlane {
  EchoPlane()
      : server(std::make_unique<HttpServer>(hub.makeServer())) {
    server->handle("GET", "/ping", [](const HttpRequest&) {
      return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
    });
    server->handle("POST", "/echo", [](const HttpRequest& request) {
      return HttpResponse{200, "text/plain; charset=utf-8",
                          request.method + " " + request.target + " " +
                              request.body};
    });
  }
  PipeHub hub;
  std::unique_ptr<HttpServer> server;
};

}  // namespace

TEST_F(HttpTest, ServesASimpleGet) {
  EchoPlane plane;
  PipeClient client(plane.hub);
  client.send("GET /ping HTTP/1.1\r\nHost: zs\r\n\r\n");
  const std::string response = client.exchange(*plane.server);
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response), "pong\n");
  EXPECT_NE(response.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(plane.server->counters().requests, 1u);
  EXPECT_EQ(plane.server->counters().errors, 0u);
}

TEST_F(HttpTest, ReassemblesByteSplitRequests) {
  EchoPlane plane;
  PipeClient client(plane.hub);
  const std::string request =
      "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  // One byte per poll: the parser must buffer across arbitrary frame
  // boundaries (request line, header block, and body all split).
  std::string response;
  for (char c : request) {
    client.send(std::string(1, c));
    plane.server->poll();
    client.transport->receive(response);
  }
  plane.server->poll();
  client.transport->receive(response);
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response), "POST /echo hello");
  EXPECT_EQ(plane.server->counters().requests, 1u);
}

TEST_F(HttpTest, KeepAliveServesSequentialRequestsOnOneConnection) {
  EchoPlane plane;
  PipeClient client(plane.hub);
  client.send("GET /ping HTTP/1.1\r\n\r\n");
  std::string first = client.exchange(*plane.server);
  EXPECT_EQ(statusOf(first), 200);
  client.send("GET /ping HTTP/1.1\r\n\r\n");
  std::string second = client.exchange(*plane.server);
  EXPECT_EQ(statusOf(second), 200);
  EXPECT_EQ(plane.server->counters().requests, 2u);
  EXPECT_EQ(plane.server->counters().connectionsOpened, 1u);
  EXPECT_EQ(plane.server->counters().connectionsClosed, 0u);
}

TEST_F(HttpTest, PipelinedRequestsEachGetAResponse) {
  EchoPlane plane;
  PipeClient client(plane.hub);
  client.send(
      "GET /ping HTTP/1.1\r\n\r\n"
      "POST /echo HTTP/1.1\r\nContent-Length: 2\r\n\r\nok"
      "GET /ping HTTP/1.1\r\n\r\n");
  const auto responses = splitResponses(client.exchange(*plane.server));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(bodyOf(responses[0]), "pong\n");
  EXPECT_EQ(bodyOf(responses[1]), "POST /echo ok");
  EXPECT_EQ(bodyOf(responses[2]), "pong\n");
}

TEST_F(HttpTest, ConnectionCloseAndHttp10SemanticsCloseTheConnection) {
  EchoPlane plane;
  {
    PipeClient client(plane.hub);
    client.send("GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
    const std::string response = client.exchange(*plane.server);
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  }
  EXPECT_EQ(plane.server->counters().connectionsClosed, 1u);
  {
    // HTTP/1.0 defaults to close...
    PipeClient client(plane.hub);
    client.send("GET /ping HTTP/1.0\r\n\r\n");
    const std::string response = client.exchange(*plane.server);
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  }
  EXPECT_EQ(plane.server->counters().connectionsClosed, 2u);
  {
    // ...unless it asks to stay open.
    PipeClient client(plane.hub);
    client.send("GET /ping HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    const std::string response = client.exchange(*plane.server);
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_NE(response.find("Connection: keep-alive\r\n"), std::string::npos);
  }
  EXPECT_EQ(plane.server->counters().connectionsClosed, 2u);
}

TEST_F(HttpTest, UnknownPathIs404KnownPathWrongMethodIs405) {
  EchoPlane plane;
  PipeClient client(plane.hub);
  client.send("GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(*plane.server)), 404);
  client.send("DELETE /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(*plane.server)), 405);
  EXPECT_EQ(plane.server->counters().errors, 2u);
  EXPECT_EQ(plane.server->counters().parseErrors, 0u);
}

TEST_F(HttpTest, MalformedRequestsGet400AndTheConnectionDropped) {
  const char* bad[] = {
      "GET/ping HTTP/1.1\r\n\r\n",         // no spaces
      "GET /ping HTTP/1.1 extra\r\n\r\n",  // four tokens
      "GET /ping HTTP/2\r\n\r\n",          // unsupported version
      "GET ping HTTP/1.1\r\n\r\n",         // target without leading /
      "GET /ping HTTP/1.1\r\nno-colon-here\r\n\r\n",
      "POST /echo HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
  };
  for (const char* request : bad) {
    EchoPlane plane;
    PipeClient client(plane.hub);
    client.send(request);
    EXPECT_EQ(statusOf(client.exchange(*plane.server)), 400) << request;
    EXPECT_EQ(plane.server->counters().parseErrors, 1u) << request;
    EXPECT_EQ(plane.server->counters().connectionsClosed, 1u) << request;
  }
}

TEST_F(HttpTest, OversizedRequestLineHeadersAndBodyAreBounded) {
  HttpLimits limits;
  limits.maxRequestLineBytes = 64;
  limits.maxHeaderBytes = 128;
  limits.maxBodyBytes = 16;
  {
    PipeHub hub;
    HttpServer server(hub.makeServer(), limits);
    PipeClient client(hub);
    client.send("GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n");
    EXPECT_EQ(statusOf(client.exchange(server)), 414);
  }
  {
    // An unterminated request line is rejected once it cannot possibly
    // fit, without waiting for a newline that may never come.
    PipeHub hub;
    HttpServer server(hub.makeServer(), limits);
    PipeClient client(hub);
    client.send(std::string(200, 'a'));
    EXPECT_EQ(statusOf(client.exchange(server)), 414);
  }
  {
    PipeHub hub;
    HttpServer server(hub.makeServer(), limits);
    PipeClient client(hub);
    client.send("GET /ping HTTP/1.1\r\nx: " + std::string(300, 'h') +
                "\r\n\r\n");
    EXPECT_EQ(statusOf(client.exchange(server)), 431);
  }
  {
    PipeHub hub;
    HttpServer server(hub.makeServer(), limits);
    PipeClient client(hub);
    client.send("POST /echo HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
    EXPECT_EQ(statusOf(client.exchange(server)), 413);
  }
}

TEST_F(HttpTest, ChunkedTransferIsDeclined) {
  EchoPlane plane;
  PipeClient client(plane.hub);
  client.send(
      "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(*plane.server)), 501);
}

TEST_F(HttpTest, ThrowingHandlerAnswers500AndKeepsServing) {
  PipeHub hub;
  HttpServer server(hub.makeServer());
  server.handle("GET", "/boom", [](const HttpRequest&) -> HttpResponse {
    throw StateError("handler exploded");
  });
  server.handle("GET", "/ok", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "fine\n"};
  });
  PipeClient client(hub);
  client.send("GET /boom HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(server)), 500);
  client.send("GET /ok HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(server)), 200);
}

TEST_F(HttpTest, ConcurrentScrapersAreServedIndependently) {
  EchoPlane plane;
  std::vector<std::unique_ptr<PipeClient>> scrapers;
  for (int i = 0; i < 5; ++i) {
    scrapers.push_back(std::make_unique<PipeClient>(plane.hub));
  }
  // All five requests land before a single poll.
  for (auto& scraper : scrapers) {
    scraper->send("GET /ping HTTP/1.1\r\n\r\n");
  }
  for (auto& scraper : scrapers) {
    const std::string response = scraper->exchange(*plane.server);
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_EQ(bodyOf(response), "pong\n");
  }
  EXPECT_EQ(plane.server->counters().requests, 5u);
  EXPECT_EQ(plane.server->counters().connectionsOpened, 5u);
}

TEST_F(HttpTest, RequestCountersLandInTheMetricsRegistry) {
  EchoPlane plane;
  PipeClient client(plane.hub);
  client.send("GET /ping HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n");
  client.exchange(*plane.server);
  const auto snap = trace::MetricsRegistry::instance().snapshot();
  std::uint64_t requests = 0, errors = 0;
  for (const auto& m : snap) {
    if (m.name == "zs.http.requests") requests = m.count;
    if (m.name == "zs.http.errors") errors = m.count;
  }
  EXPECT_EQ(requests, 2u);
  EXPECT_EQ(errors, 1u);
}

// --- The mounted daemon endpoint set --------------------------------------

namespace {

/// A daemon plus its telemetry plane on separate hubs, with one rank's
/// worth of traffic helpers.
struct DaemonPlane {
  explicit DaemonPlane(DaemonOptions options = {})
      : daemon(wireHub.makeServer(), {}, options),
        http(std::make_unique<HttpServer>(httpHub.makeServer())) {
    mountDaemonEndpoints(*http, daemon, [this] { return clock; },
                         {{"job", "j1"}, {"role", "daemon"}});
  }
  PipeHub wireHub;
  PipeHub httpHub;
  Aggregator daemon;
  std::unique_ptr<HttpServer> http;
  double clock = 0.0;
};

Frame helloFrame(int rank) {
  Frame frame;
  frame.kind = FrameKind::kHello;
  frame.hello.job = "j1";
  frame.hello.rank = rank;
  frame.hello.worldSize = 2;
  frame.hello.hostname = "node0000";
  frame.hello.pid = 100 + rank;
  return frame;
}

Frame batchFrame(double t, std::uint64_t seq) {
  Frame frame;
  frame.kind = FrameKind::kBatch;
  frame.timeSeconds = t;
  frame.batchSeq = seq;
  frame.enqueueSeconds = t - 0.010;
  frame.encodeSeconds = t - 0.005;
  frame.records.push_back({t, names::intern("hwt.0.user_pct"), 50.0});
  return frame;
}

}  // namespace

TEST_F(HttpTest, MetricsEndpointServesValidExpositionWithLabels) {
  DaemonPlane plane;
  auto source = plane.wireHub.makeClientTransport();
  ASSERT_TRUE(source->connect());
  ASSERT_TRUE(source->send(encodeFrame(helloFrame(0))));
  ASSERT_TRUE(source->send(encodeFrame(batchFrame(1.0, 1))));
  plane.clock = 1.0;
  plane.daemon.poll(1.0);

  PipeClient scraper(plane.httpHub);
  scraper.send("GET /metrics HTTP/1.1\r\n\r\n");
  const std::string response = scraper.exchange(*plane.http);
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_NE(
      response.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  const std::string body = bodyOf(response);
  // The daemon's ingest counters and latency attribution are present,
  // carrying the caller's {job,role} labels.
  EXPECT_NE(body.find("# TYPE zs_agg_daemon_latency_send_to_ingest_seconds "
                      "histogram"),
            std::string::npos);
  EXPECT_NE(body.find("zs_agg_daemon_latency_enqueue_to_send_seconds_count"
                      "{job=\"j1\",role=\"daemon\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("zs_agg_daemon_pressure{job=\"j1\",role=\"daemon\"}"),
            std::string::npos);
}

TEST_F(HttpTest, HealthzReportsSourcesAndBacklog) {
  DaemonPlane plane;
  auto source = plane.wireHub.makeClientTransport();
  ASSERT_TRUE(source->connect());
  ASSERT_TRUE(source->send(encodeFrame(helloFrame(0))));
  plane.clock = 2.0;
  plane.daemon.poll(2.0);

  PipeClient client(plane.httpHub);
  client.send("GET /healthz HTTP/1.1\r\n\r\n");
  const std::string response = client.exchange(*plane.http);
  EXPECT_EQ(statusOf(response), 200);
  const json::Value doc = json::parse(bodyOf(response));
  EXPECT_TRUE(doc.find("ready")->asBool());
  EXPECT_EQ(doc.stringOr("pressure", ""), "ok");
  EXPECT_EQ(doc.numberOr("ingest_backlog", -1), 0.0);
  EXPECT_EQ(doc.numberOr("time_seconds", -1), 2.0);
  EXPECT_EQ(doc.find("sources")->numberOr("active", -1), 1.0);
}

TEST_F(HttpTest, ReadyzFlipsWithDaemonPressure) {
  DaemonOptions options;
  options.maxPendingBatches = 10;
  options.maxBatchesPerPoll = 1;
  DaemonPlane plane(options);
  auto source = plane.wireHub.makeClientTransport();
  ASSERT_TRUE(source->connect());
  ASSERT_TRUE(source->send(encodeFrame(helloFrame(0))));
  NameRefs names;  // the connection's name table
  for (std::uint64_t seq = 1; seq <= 12; ++seq) {
    ASSERT_TRUE(source->send(encodeFrame(batchFrame(1.0, seq), names)));
  }
  plane.daemon.poll(1.0);
  ASSERT_EQ(plane.daemon.pressure(), PressureLevel::kOverloaded);

  PipeClient client(plane.httpHub);
  client.send("GET /readyz HTTP/1.1\r\n\r\n");
  const std::string overloaded = client.exchange(*plane.http);
  EXPECT_EQ(statusOf(overloaded), 503);
  EXPECT_FALSE(json::parse(bodyOf(overloaded)).find("ready")->asBool());

  // Draining the admission queue restores readiness.
  plane.daemon.drainBacklog(2.0);
  plane.daemon.poll(2.0);
  ASSERT_EQ(plane.daemon.pressure(), PressureLevel::kOk);
  client.send("GET /readyz HTTP/1.1\r\n\r\n");
  const std::string ready = client.exchange(*plane.http);
  EXPECT_EQ(statusOf(ready), 200);
  EXPECT_TRUE(json::parse(bodyOf(ready)).find("ready")->asBool());
}

TEST_F(HttpTest, DashboardAndQueryBridgeTheExistingServices) {
  DaemonPlane plane;
  auto source = plane.wireHub.makeClientTransport();
  ASSERT_TRUE(source->connect());
  ASSERT_TRUE(source->send(encodeFrame(helloFrame(0))));
  ASSERT_TRUE(source->send(encodeFrame(batchFrame(1.0, 1))));
  plane.clock = 1.0;
  plane.daemon.poll(1.0);

  PipeClient client(plane.httpHub);
  client.send("GET /dashboard HTTP/1.1\r\n\r\n");
  const std::string dashboard = client.exchange(*plane.http);
  EXPECT_EQ(statusOf(dashboard), 200);
  EXPECT_NE(bodyOf(dashboard).find("j1"), std::string::npos);

  const std::string query = "{\"op\":\"sources\"}";
  client.send("POST /query HTTP/1.1\r\nContent-Length: " +
              std::to_string(query.size()) + "\r\n\r\n" + query);
  const std::string response = client.exchange(*plane.http);
  EXPECT_EQ(statusOf(response), 200);
  const json::Value doc = json::parse(bodyOf(response));
  ASSERT_NE(doc.find("sources"), nullptr);
  EXPECT_EQ(doc.find("sources")->asArray().size(), 1u);
}

// --- Loopback TCP end-to-end ----------------------------------------------

TEST_F(HttpTest, ServesOverLoopbackTcp) {
  auto listener = std::make_unique<TcpServer>(0);
  const int port = listener->port();
  HttpServer server(std::move(listener));
  server.handle("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
  });

  TcpTransport client("127.0.0.1", port);
  ASSERT_TRUE(client.connect());
  ASSERT_TRUE(client.send("GET /ping HTTP/1.1\r\nHost: zs\r\n\r\n"));
  std::string response;
  for (int i = 0; i < 500 && bodyOf(response) != "pong\n"; ++i) {
    server.poll();
    client.receive(response);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response), "pong\n");
}

// --- Connection hygiene (many concurrent readers) ---------------------------

TEST_F(HttpTest, ExcessConnectionsGetAGraceful503) {
  HttpLimits limits;
  limits.maxConnections = 2;
  PipeHub hub;
  HttpServer server(hub.makeServer(), limits);
  server.handle("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
  });

  PipeClient first(hub);
  PipeClient second(hub);
  first.send("GET /ping HTTP/1.1\r\n\r\n");
  second.send("GET /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(first.exchange(server)), 200);
  EXPECT_EQ(statusOf(second.exchange(server)), 200);

  // The third connection is answered 503 and closed without ever
  // occupying a slot; the established pair keeps being served.
  PipeClient third(hub);
  third.send("GET /ping HTTP/1.1\r\n\r\n");
  const std::string rejected = third.exchange(server);
  EXPECT_EQ(statusOf(rejected), 503);
  EXPECT_NE(rejected.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(server.counters().connectionsRejected, 1u);
  first.send("GET /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(first.exchange(server)), 200);

  // A freed slot readmits new connections.
  first.send("GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
  first.exchange(server);
  PipeClient fourth(hub);
  fourth.send("GET /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(fourth.exchange(server)), 200);
  EXPECT_EQ(server.counters().connectionsRejected, 1u);
}

TEST_F(HttpTest, IdleConnectionsAreReapedActiveOnesKept) {
  HttpLimits limits;
  limits.idleTimeoutSeconds = 5.0;
  PipeHub hub;
  HttpServer server(hub.makeServer(), limits);
  server.handle("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "pong\n"};
  });

  PipeClient idler(hub);
  PipeClient active(hub);
  idler.send("GET /ping HTTP/1.1\r\n\r\n");
  active.send("GET /ping HTTP/1.1\r\n\r\n");
  server.poll(10.0);
  std::string out;
  idler.transport->receive(out);
  EXPECT_EQ(statusOf(out), 200);

  // The active connection keeps talking; the idler goes quiet past the
  // timeout and is reaped.  An abandoned dashboard tab cannot pin a
  // server slot forever.
  active.send("GET /ping HTTP/1.1\r\n\r\n");
  server.poll(14.0);
  server.poll(16.0);  // idler last heard at 10.0 -> reaped
  EXPECT_EQ(server.counters().idleClosed, 1u);
  EXPECT_EQ(server.counters().connectionsClosed, 1u);
  active.send("GET /ping HTTP/1.1\r\n\r\n");
  std::string kept;
  for (int i = 0; i < 3; ++i) {
    server.poll(17.0);
    active.transport->receive(kept);
  }
  EXPECT_EQ(statusOf(kept), 200);
}

// --- The mounted query/dashboard plane (DESIGN.md §12) ----------------------

namespace {

/// DaemonPlane plus the query service, mounted the way zerosum-aggd
/// mounts it.
struct QueryDaemonPlane : DaemonPlane {
  explicit QueryDaemonPlane(QueryServiceOptions queryOptions = {})
      : DaemonPlane(), service(daemon, queryOptions) {
    // Re-mount with the service: the later registration wins the route.
    mountDaemonEndpoints(*http, daemon, [this] { return clock; },
                         {{"job", "j1"}, {"role", "daemon"}}, &service);
  }
  QueryService service;
};

}  // namespace

TEST_F(HttpTest, ParseQueryStringDecodesEscapesAndPlus) {
  const auto params =
      parseQueryString("/api/query?op=range&metric=hwt.0.user%5Fpct"
                       "&name=a+b%20c&flag&op=window");
  EXPECT_EQ(params.at("metric"), "hwt.0.user_pct");
  EXPECT_EQ(params.at("name"), "a b c");
  EXPECT_EQ(params.at("flag"), "");
  EXPECT_EQ(params.at("op"), "window");  // duplicate: last wins
  EXPECT_TRUE(parseQueryString("/plain/path").empty());
}

TEST_F(HttpTest, ApiQueryServesGetFormQueries) {
  QueryDaemonPlane plane;
  auto source = plane.wireHub.makeClientTransport();
  ASSERT_TRUE(source->connect());
  ASSERT_TRUE(source->send(encodeFrame(helloFrame(0))));
  ASSERT_TRUE(source->send(encodeFrame(batchFrame(1.0, 1))));
  plane.clock = 1.0;
  plane.daemon.poll(1.0);
  plane.service.beginPoll(1.0);

  PipeClient client(plane.httpHub);
  client.send("GET /api/query?op=snapshot&metric=hwt.0.user_pct "
              "HTTP/1.1\r\n\r\n");
  const std::string response = client.exchange(*plane.http);
  EXPECT_EQ(statusOf(response), 200);
  const json::Value doc = json::parse(bodyOf(response));
  ASSERT_EQ(doc.find("series")->asArray().size(), 1u);
  EXPECT_EQ(doc.find("series")->asArray()[0].stringOr("metric", ""),
            "hwt.0.user_pct");

  // The same logical query as POST shares the GET form's cache entry.
  const std::string body =
      "{\"op\":\"snapshot\",\"metric\":\"hwt.0.user_pct\"}";
  client.send("POST /query HTTP/1.1\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_EQ(statusOf(client.exchange(*plane.http)), 200);
  EXPECT_EQ(plane.service.counters().cacheHits, 1u);

  client.send("GET /api/stats HTTP/1.1\r\n\r\n");
  const std::string stats = client.exchange(*plane.http);
  EXPECT_EQ(statusOf(stats), 200);
  EXPECT_EQ(json::parse(bodyOf(stats))
                .find("queries")
                ->numberOr("served", -1),
            2.0);
}

TEST_F(HttpTest, ShedQueriesAnswer429WithRetryAfterHeader) {
  QueryServiceOptions options;
  options.maxQueriesPerPoll = 1;
  options.cacheMaxEntries = 0;
  options.retryAfterSeconds = 3.0;
  QueryDaemonPlane plane(options);
  plane.service.beginPoll(0.0);

  PipeClient client(plane.httpHub);
  client.send("GET /api/query?op=series HTTP/1.1\r\n\r\n"
              "GET /api/query?op=series HTTP/1.1\r\n\r\n");
  const auto responses = splitResponses(client.exchange(*plane.http));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(statusOf(responses[0]), 200);
  EXPECT_EQ(statusOf(responses[1]), 429);
  EXPECT_NE(responses[1].find("Retry-After: 3\r\n"), std::string::npos);
  // A shed query is an HTTP error for the counters, not a parse error.
  EXPECT_EQ(plane.http->counters().errors, 1u);
  EXPECT_EQ(plane.http->counters().parseErrors, 0u);
}

TEST_F(HttpTest, BulkClassIsSelectedByParamHeaderOrExportOp) {
  QueryServiceOptions options;
  options.bulkQueriesPerPoll = 0;  // every bulk query sheds
  options.cacheMaxEntries = 0;
  QueryDaemonPlane plane(options);
  plane.service.beginPoll(0.0);

  PipeClient client(plane.httpHub);
  client.send("GET /api/query?op=series&class=bulk HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(*plane.http)), 429);
  client.send("GET /api/query?op=series HTTP/1.1\r\n"
              "X-Query-Class: bulk\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(*plane.http)), 429);
  client.send("GET /api/query?op=export HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(*plane.http)), 429);
  EXPECT_EQ(plane.service.counters().shedBulk, 3u);
  // Unclassified queries stay live and keep being served.
  client.send("GET /api/query?op=series HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(*plane.http)), 200);
}

TEST_F(HttpTest, WithoutAQueryServiceLegacyPostQueryStillWorks) {
  DaemonPlane plane;  // mounted with queryService == nullptr
  PipeClient client(plane.httpHub);
  client.send("GET /api/query?op=series HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(client.exchange(*plane.http)), 404);
  const std::string query = "{\"op\":\"sources\"}";
  client.send("POST /query HTTP/1.1\r\nContent-Length: " +
              std::to_string(query.size()) + "\r\n\r\n" + query);
  EXPECT_EQ(statusOf(client.exchange(*plane.http)), 200);
}

namespace {

/// Splits a byte stream of back-to-back responses, checking each: a
/// status line, then a header block whose Content-Length equals the
/// body's size.  Empty on success, else what is wrong.
std::string checkResponses(const std::string& stream, std::size_t& count) {
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t lineEnd = stream.find("\r\n", pos);
    const std::size_t headerEnd = stream.find("\r\n\r\n", pos);
    if (lineEnd == std::string::npos || headerEnd == std::string::npos) {
      return "an incomplete response at byte " + std::to_string(pos);
    }
    const std::string line = stream.substr(pos, lineEnd - pos);
    if (line.size() < 14 || line.compare(0, 9, "HTTP/1.1 ") != 0 ||
        std::isdigit(static_cast<unsigned char>(line[9])) == 0 ||
        std::isdigit(static_cast<unsigned char>(line[10])) == 0 ||
        std::isdigit(static_cast<unsigned char>(line[11])) == 0 ||
        line[12] != ' ') {
      return "a bad status line: " + line;
    }
    const std::string headers = stream.substr(lineEnd, headerEnd + 2 - lineEnd);
    const std::size_t lenAt = headers.find("\r\nContent-Length: ");
    if (lenAt == std::string::npos) {
      return "no Content-Length in " + headers;
    }
    const std::size_t digits = lenAt + 18;
    const std::size_t length = std::stoul(
        headers.substr(digits, headers.find('\r', digits) - digits));
    const std::size_t end = headerEnd + 4 + length;
    if (end > stream.size()) {
      return "a body shorter than its Content-Length: " + line;
    }
    pos = end;
    ++count;
  }
  return "";
}

std::size_t below(stats::SplitMix64& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.nextBelow(n));
}

/// One to four mutations of a request stream: bit flips, inserted bytes
/// (mostly the grammar's own), deletions, truncation, a duplicated span,
/// or a Content-Length value swapped for another.
std::string mutateRequest(stats::SplitMix64& rng, std::string text) {
  static const std::string kAlphabet =
      "\r\n :/?&=%+-.0123456789GETPOSHTX\t";
  static const char* const kLengths[] = {
      "0", "1", "-1", "26", "257", "99999999999999999999", "abc", "", " 5",
      "1e3"};
  const std::size_t edits = 1 + below(rng, 4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = below(rng, text.size() + 1);
    switch (below(rng, 6)) {
      case 0:  // flip a bit
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1 << below(rng, 8)));
        }
        break;
      case 1:  // insert a byte
        text.insert(at, 1,
                    below(rng, 4) == 0
                        ? static_cast<char>(below(rng, 256))
                        : kAlphabet[below(rng, kAlphabet.size())]);
        break;
      case 2:  // delete a span
        text.erase(std::min(at, text.size()), 1 + below(rng, 8));
        break;
      case 3:  // truncate
        text.resize(at);
        break;
      case 4: {  // duplicate a span: pipelined and overlapping requests
        const std::size_t from = below(rng, text.size() + 1);
        const std::size_t length = below(rng, text.size() - from + 1);
        text.insert(at, text.substr(from, length));
        break;
      }
      default: {  // another Content-Length
        const std::size_t header = text.find("Content-Length: ", at);
        if (header == std::string::npos) {
          break;
        }
        const std::size_t value = header + 16;
        const std::size_t end = text.find('\r', value);
        text.replace(value,
                     (end == std::string::npos ? text.size() : end) - value,
                     kLengths[below(rng, std::size(kLengths))]);
        break;
      }
    }
  }
  return text;
}

std::string post(const std::string& body, const std::string& extra = "") {
  return "POST /query HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n" + extra + "\r\n" + body;
}

}  // namespace

TEST_F(HttpTest, MutatedRequestsGetAResponseOrACloseNeverACrash) {
  // Small bounds, so the flush below can always complete a pending body.
  HttpLimits limits;
  limits.maxRequestLineBytes = 256;
  limits.maxHeaderBytes = 512;
  limits.maxBodyBytes = 256;
  PipeHub wireHub;
  PipeHub httpHub;
  Aggregator daemon(wireHub.makeServer());
  QueryService service(daemon);
  HttpServer http(httpHub.makeServer(), limits);
  mountDaemonEndpoints(http, daemon, [] { return 1.0; },
                       {{"job", "j1"}, {"role", "daemon"}}, &service);
  auto source = wireHub.makeClientTransport();
  ASSERT_TRUE(source->connect());
  ASSERT_TRUE(source->send(encodeFrame(helloFrame(0))));
  ASSERT_TRUE(source->send(encodeFrame(batchFrame(1.0, 1))));
  daemon.poll(1.0);

  const std::string snapshot = R"({"op":"snapshot","rank":0})";
  const std::vector<std::string> seeds = {
      "GET /healthz HTTP/1.1\r\nHost: zs\r\n\r\n",
      "GET /readyz HTTP/1.0\r\n\r\n",
      "GET /dashboard HTTP/1.1\r\nConnection: close\r\n\r\n",
      "GET /api/query?op=snapshot&metric=hwt.0.user_pct HTTP/1.1\r\n\r\n",
      "GET /api/query?op=range&job=j1&rank=0&metric=hwt.0.user_pct&t0=0"
      "&t1=10 HTTP/1.1\r\nX-Query-Class: bulk\r\n\r\n",
      "GET /api/stats HTTP/1.1\r\n\r\n",
      post(snapshot),
      post(R"({"op":"window","metric":"hwt.0.user_pct","window_s":5})",
           "Connection: keep-alive\r\n"),
      "GET /readyz HTTP/1.1\r\n\r\nGET /api/query?op=series HTTP/1.1\r\n\r\n" +
          post(snapshot),
      post(R"({"op":"export"})") + "GET /healthz HTTP/1.1\r\n\r\n",
  };
  // Line feeds past any body the bounds admit: a request still pending
  // after the mutated stream completes, and the blank lines after it make
  // a malformed request, which closes the connection.
  const std::string flush(2 * (limits.maxBodyBytes + 8), '\n');

  stats::SplitMix64 rng(2323);
  constexpr int kInputs = 10000;
  std::size_t responses = 0;
  std::size_t closedEarly = 0;
  double now = 1.0;
  auto poll = [&] {
    try {
      http.poll(now);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "poll threw: " << e.what();
    }
  };
  for (int i = 0; i < kInputs; ++i) {
    service.beginPoll(now);
    const std::string stream =
        mutateRequest(rng, seeds[below(rng, seeds.size())]);
    const std::unique_ptr<Transport> client = httpHub.makeClientTransport();
    ASSERT_TRUE(client->connect());
    // At random split points, polling between the pieces.
    std::string received;
    bool open = true;
    for (std::size_t at = 0; at < stream.size() && open;) {
      const std::size_t piece = 1 + below(rng, stream.size() - at);
      open = client->send(stream.substr(at, piece));
      at += piece;
      poll();
      open = client->receive(received) && open;
    }
    poll();
    open = client->receive(received) && open;
    std::size_t count = 0;
    const std::string wrong = checkResponses(received, count);
    EXPECT_EQ(wrong, "") << "request stream:\n" << stream;
    responses += count;
    if (!open) {
      ++closedEarly;
    } else {
      // Still open: it must serve what is pending and then close.
      ASSERT_TRUE(client->send(flush));
      poll();
      std::string after;
      const bool stillOpen = client->receive(after);
      std::size_t more = 0;
      EXPECT_EQ(checkResponses(after, more), "") << stream;
      EXPECT_TRUE(more > 0 || !stillOpen)
          << "neither served nor closed:\n" << stream;
      responses += more;
    }
    client->close();
    poll();
    now += 0.001;
    if (HasFailure()) {
      return;  // one reported input is enough
    }
  }
  RecordProperty("responses", static_cast<int>(responses));
  // The run reached both outcomes, and the server holds no connection.
  EXPECT_GT(closedEarly, 100U);
  EXPECT_GT(responses, static_cast<std::size_t>(kInputs));
  EXPECT_EQ(http.counters().connectionsOpened,
            http.counters().connectionsClosed);
}
