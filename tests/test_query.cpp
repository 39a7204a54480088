// The one query dialect (aggregator/query.hpp):
//   * parity: one seeded data set, half of it sealed into a tsdb segment
//     and half left in hot windows, answers every snapshot and range alike
//     through the wire (with and without an engine), the read plane (POST
//     and GET forms) and the offline engine overload over the sealed dir,
//     and every entry point rejects the same malformed requests;
//   * the read plane's export lists an engine's series without decoding
//     their newest blocks, so one bounded before a damaged block answers;
//   * the bytes of every answer: a fingerprint of each entry point's
//     answer to edge values (-0, an overflowing sum, numbers past 1e6,
//     names that need escaping) and of whole HTTP responses, pinned;
//   * a seeded mutation run of the one parser, JSON and GET forms,
//     through all three entry points: every input gets an answer or an
//     error body, never an exception;
//   * a seeded mutation run of json::parse over real answers: each
//     mutated document parses or throws ParseError, nothing else.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aggregator/catalog.hpp"
#include "aggregator/daemon.hpp"
#include "aggregator/http.hpp"
#include "aggregator/query.hpp"
#include "aggregator/queryservice.hpp"
#include "aggregator/transport.hpp"
#include "aggregator/wire.hpp"
#include "common/error.hpp"
#include "common/interning.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "trace/metrics.hpp"
#include "tsdb/engine.hpp"
#include "tsdb/segment.hpp"

using namespace zerosum;
using namespace zerosum::aggregator;

namespace {

namespace fs = std::filesystem;

using Params = std::map<std::string, std::string>;

constexpr const char* kJobs[] = {"a", "b"};
constexpr int kRanks = 3;
constexpr const char* kMetrics[] = {"m0", "m1", "m2"};
constexpr int kSeconds = 40;  // four coarse windows
constexpr double kNow = kSeconds;

/// Two daemons fed the same seeded records over the pipe, one of them
/// persisting through a tsdb engine; the read plane serves that one.
class QueryDialectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::MetricsRegistry::instance().reset();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("zs_query_") + info->name() + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    tsdb::EngineOptions options;
    options.fsync = tsdb::FsyncPolicy::kOff;
    engine_ = std::make_unique<tsdb::Engine>(dir_.string(), options);
    withEngine_ = std::make_unique<Aggregator>(engineHub_.makeServer());
    withEngine_->attachEngine(engine_.get());
    storeOnly_ = std::make_unique<Aggregator>(storeHub_.makeServer());
    QueryServiceOptions serviceOptions;
    serviceOptions.maxQueriesPerPoll = 1U << 30;  // nothing is shed here
    serviceOptions.bulkQueriesPerPoll = 1U << 30;
    service_ = std::make_unique<QueryService>(*withEngine_, serviceOptions);
  }

  void TearDown() override {
    service_.reset();
    withEngine_.reset();
    storeOnly_.reset();
    engine_.reset();
    fs::remove_all(dir_);
    trace::MetricsRegistry::instance().reset();
  }

  /// 2 jobs x 3 ranks x 3 metrics, two records per series and second.
  /// Integer values, so the store's and the engine's sums agree bit for
  /// bit; the first half is compacted into a segment, the rest stays hot.
  void ingest(std::uint64_t seed) {
    stats::SplitMix64 rng(seed);
    std::vector<std::unique_ptr<Transport>> sources;
    for (PipeHub* hub : {&engineHub_, &storeHub_}) {
      for (const char* job : kJobs) {
        for (int rank = 0; rank < kRanks; ++rank) {
          Frame hello;
          hello.kind = FrameKind::kHello;
          hello.hello.job = job;
          hello.hello.rank = rank;
          hello.hello.worldSize = kRanks;
          hello.hello.hostname = "node0000";
          hello.hello.pid = 100 + rank;
          sources.push_back(hub->makeClientTransport());
          ASSERT_TRUE(sources.back()->connect());
          ASSERT_TRUE(sources.back()->send(encodeFrame(hello)));
        }
      }
    }
    const std::size_t perDaemon = sources.size() / 2;
    std::vector<NameRefs> tables(sources.size());  // one per connection
    for (int second = 0; second < kSeconds; ++second) {
      for (std::size_t s = 0; s < perDaemon; ++s) {
        Frame batch;
        batch.kind = FrameKind::kBatch;
        batch.timeSeconds = second + 0.75;
        for (const char* metric : kMetrics) {
          for (const double offset : {0.25, 0.75}) {
            batch.records.push_back(
                {second + offset, names::intern(metric),
                 static_cast<double>(rng.nextBelow(1000))});
          }
        }
        for (const std::size_t to : {s, perDaemon + s}) {
          ASSERT_TRUE(sources[to]->send(encodeFrame(batch, tables[to])));
        }
      }
      withEngine_->poll(second + 1.0);
      storeOnly_->poll(second + 1.0);
      if (second == kSeconds / 2) {
        engine_->compact();
      }
    }
    ASSERT_EQ(engine_->segmentCount(), 1U);
  }

  /// Opens the sealed data dir the way `zerosum-post --tsdb-query` does.
  std::unique_ptr<tsdb::Engine> sealAndReopen() {
    engine_->seal();
    tsdb::EngineOptions options;
    options.readOnly = true;
    return std::make_unique<tsdb::Engine>(dir_.string(), options);
  }

  fs::path dir_;
  PipeHub engineHub_;
  PipeHub storeHub_;
  std::unique_ptr<tsdb::Engine> engine_;
  std::unique_ptr<Aggregator> withEngine_;
  std::unique_ptr<Aggregator> storeOnly_;
  std::unique_ptr<QueryService> service_;
};

/// The JSON form of a GET-form request: rank and bounds as numbers.
std::string jsonOf(const std::string& op, const Params& params) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject().field("op", op);
  for (const auto& [name, value] : params) {
    if (name == "rank" || name == "t0" || name == "t1" || name == "window_s") {
      w.field(name, std::stod(value));
    } else {
      w.field(name, value);
    }
  }
  w.endObject();
  return out.str();
}

/// The array an answer ends with, named by its `field`: what the entry
/// points must agree on, without the generation each stamps differently.
std::string arrayOf(const std::string& body, const std::string& field) {
  const std::size_t at = body.find("\"" + field + "\":");
  const std::size_t end = body.rfind(']');
  return at == std::string::npos || end == std::string::npos || end < at
             ? "missing " + field + " in " + body
             : body.substr(at, end + 1 - at);
}

bool isError(const std::string& body) {
  return json::parse(body).find("error") != nullptr;
}

}  // namespace

TEST_F(QueryDialectTest, EveryEntryPointAnswersSnapshotsAndRangesAlike) {
  ingest(20);
  struct Request {
    std::string op;
    Params params;
    std::size_t entries;  ///< series or windows expected
  };
  const std::vector<Request> requests = {
      {"snapshot", {}, 18},
      {"snapshot", {{"job", "a"}}, 9},
      {"snapshot", {{"rank", "1"}}, 6},
      {"snapshot", {{"job", "b"}, {"rank", "2"}}, 3},
      {"snapshot", {{"metric", "m1"}}, 6},
      {"snapshot", {{"job", "a"}, {"rank", "0"}, {"metric", "m2"}}, 1},
      {"snapshot", {{"rank", "2"}, {"metric", "m0"}}, 2},
      {"snapshot", {{"job", "none"}}, 0},
      {"range", {{"job", "a"}, {"rank", "1"}, {"metric", "m0"}}, 40},
      {"range",
       {{"job", "b"}, {"rank", "2"}, {"metric", "m2"}, {"t0", "5"},
        {"t1", "25.5"}},
       21},
      {"range",
       {{"job", "a"}, {"rank", "0"}, {"metric", "m1"},
        {"resolution", "coarse"}},
       4},
      {"range",
       {{"job", "b"}, {"rank", "0"}, {"metric", "m0"}, {"t0", "12"},
        {"t1", "30"}, {"resolution", "coarse"}},
       3},
      {"range", {{"metric", "m0"}}, 0},  // job "" and rank 0: no series
  };
  std::vector<std::vector<std::string>> answers;
  for (const Request& request : requests) {
    const std::string json = jsonOf(request.op, request.params);
    const QueryResult post =
        service_->execute(json, QueryClass::kLive, kNow);
    const QueryResult get = service_->executeParams(
        request.op, request.params, QueryClass::kLive, kNow);
    ASSERT_EQ(post.status, 200) << json << post.body;
    ASSERT_EQ(get.status, 200) << json << get.body;
    answers.push_back({withEngine_->query(json), storeOnly_->query(json),
                       post.body, get.body});
  }
  const std::unique_ptr<tsdb::Engine> offline = sealAndReopen();
  const char* entryPoints[] = {"wire (engine)", "wire (store)",
                               "read plane POST", "read plane GET",
                               "offline"};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    const std::string json = jsonOf(request.op, request.params);
    answers[i].push_back(runQuery(*offline, json));
    const std::string field = request.op == "snapshot" ? "series" : "windows";
    const std::string expected = arrayOf(answers[i][0], field);
    EXPECT_EQ(json::parse(answers[i][0]).find(field)->asArray().size(),
              request.entries)
        << json << answers[i][0];
    for (std::size_t e = 1; e < answers[i].size(); ++e) {
      EXPECT_EQ(arrayOf(answers[i][e], field), expected)
          << json << " through " << entryPoints[e];
    }
  }
}

TEST_F(QueryDialectTest, EveryEntryPointRejectsTheSameMalformedRequests) {
  ingest(21);
  const std::vector<std::pair<std::string, Params>> bad = {
      {"range", {{"job", "a"}, {"rank", "0"}}},  // range needs a metric
      {"snapshot", {{"resolution", "huge"}}},
      {"range", {{"job", "a"}, {"rank", "2147483648"}, {"metric", "m0"}}},
      {"snapshot", {{"rank", "-1e300"}}},
  };
  const std::unique_ptr<tsdb::Engine> offline = sealAndReopen();
  for (const auto& [op, params] : bad) {
    const std::string json = jsonOf(op, params);
    EXPECT_TRUE(isError(withEngine_->query(json))) << json;
    EXPECT_TRUE(isError(storeOnly_->query(json))) << json;
    EXPECT_TRUE(isError(runQuery(*offline, json))) << json;
    EXPECT_EQ(service_->execute(json, QueryClass::kLive, kNow).status, 400)
        << json;
    EXPECT_EQ(
        service_->executeParams(op, params, QueryClass::kLive, kNow).status,
        400)
        << json;
  }
  // JSON has no NaN; the GET form does, and a NaN bound is an error.
  for (const char* bound : {"t0", "t1"}) {
    EXPECT_EQ(service_
                  ->executeParams("range",
                                  {{"job", "a"}, {"metric", "m0"},
                                   {bound, "nan"}},
                                  QueryClass::kLive, kNow)
                  .status,
              400)
        << bound;
  }
}

TEST_F(QueryDialectTest, ExportBoundedBeforeADamagedNewestBlockAnswers) {
  const SeriesKey damaged{"a", 0, "m0"};
  const SeriesKey intact{"a", 1, "m0"};
  const std::string dir = (dir_ / "damaged").string();
  {
    tsdb::EngineOptions options;
    options.fsync = tsdb::FsyncPolicy::kOff;
    tsdb::Engine engine(dir, options);
    for (const SeriesKey& key : {damaged, intact}) {
      engine.append(key.job, key.rank,
                    std::vector<IdRecord>{{1.5, key.metric, 5.0}});
    }
    engine.compact();
    for (const SeriesKey& key : {damaged, intact}) {
      engine.append(key.job, key.rank,
                    std::vector<IdRecord>{{4.5, key.metric, 6.0}});
    }
    engine.seal();
    ASSERT_EQ(engine.segmentCount(), 2U);
  }
  // Flip the first byte (the window count) of the block that holds the
  // damaged series' newest fine window, in the second segment.
  const std::string segment = dir + "/segment-00000002.zss";
  std::uint64_t offset = 0;
  {
    const tsdb::SegmentReader reader(segment);
    const auto entries = reader.find(damaged, Resolution::kFine);
    ASSERT_EQ(entries.size(), 1U);
    offset = entries[0].offset;
  }
  {
    std::fstream file(segment, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(static_cast<char>(byte ^ 0x5A));
  }
  tsdb::EngineOptions readOnly;
  readOnly.readOnly = true;
  tsdb::Engine engine(dir, readOnly);
  ASSERT_THROW((void)engine.latest(damaged), ParseError);
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  daemon.attachEngine(&engine);
  QueryService service(daemon);

  const QueryResult bounded = service.executeParams(
      "export", {{"metric", "m0"}, {"t1", "3"}}, QueryClass::kBulk, kNow);
  ASSERT_EQ(bounded.status, 200) << bounded.body;
  const json::Value answer = json::parse(bounded.body);
  const auto& series = answer.find("series")->asArray();
  ASSERT_EQ(series.size(), 2U);
  for (const json::Value& entry : series) {
    const auto& windows = entry.find("windows")->asArray();
    ASSERT_EQ(windows.size(), 1U) << bounded.body;
    EXPECT_EQ(windows[0].numberOr("max", -1.0), 5.0);
  }
}

namespace {

/// FNV-1a, 64-bit: a fingerprint of an answer's bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Metric names that need escaping in an answer.
const std::string kQuoteName = "q\"uote";
const std::string kBackslashName = "back\\slash";
const std::string kControlName =
    std::string("ctl\x01") + "byte\ttab\x1b" "esc";

/// The FNV-1a of each answer of AnswerBytesMatchTheParent, in the order
/// the test takes them, as the code before the string-backed writer
/// printed them.
constexpr std::uint64_t kParentAnswers[] = {
    0x1999c4f916cdd170ULL, 0x7125c9200b285943ULL, 0x7125c9200b285943ULL,
    0x7125c9200b285943ULL, 0x31b716209e074000ULL, 0xee4810e05edc6acbULL,
    0xee4810e05edc6acbULL, 0xee4810e05edc6acbULL, 0x6a605956b15b8e16ULL,
    0xa9a876e8520c1a4fULL, 0xa9a876e8520c1a4fULL, 0xa9a876e8520c1a4fULL,
    0x70dff02f41287555ULL, 0x714f66d0683cd2f4ULL, 0x714f66d0683cd2f4ULL,
    0x714f66d0683cd2f4ULL, 0x4c9cfa7224633adeULL, 0x898aa1bf5c59bcf1ULL,
    0x898aa1bf5c59bcf1ULL, 0x898aa1bf5c59bcf1ULL, 0x1087a723a6a2252dULL,
    0xccdd2a2888f7812eULL, 0xccdd2a2888f7812eULL, 0xccdd2a2888f7812eULL,
    0x4858040aa78a3afeULL, 0x759696143870f91dULL, 0x759696143870f91dULL,
    0x759696143870f91dULL, 0xe087f605a35c6ca9ULL, 0x1a7e2f44990b4218ULL,
    0x1a7e2f44990b4218ULL, 0x1a7e2f44990b4218ULL, 0xffdcfc88ad740e3bULL,
    0xe20c312a3c061614ULL, 0xe20c312a3c061614ULL, 0xe20c312a3c061614ULL,
    0x0613230c2cc26378ULL, 0xf4727054c173ea7dULL, 0xf4727054c173ea7dULL,
    0xf4727054c173ea7dULL, 0xf69318412f7a9038ULL, 0xfe670ba98762ea17ULL,
    0xfe670ba98762ea17ULL, 0xfe670ba98762ea17ULL, 0x7aca38cc47e666d5ULL,
    0x03b2ce5de73aeb3eULL, 0x03b2ce5de73aeb3eULL, 0x03b2ce5de73aeb3eULL,
    0x2b845aaa984a2168ULL, 0x5972a6b4ca54aab9ULL, 0x5972a6b4ca54aab9ULL,
    0x5972a6b4ca54aab9ULL, 0x4425d1d328bfca38ULL, 0xb5178c6fc5b6cb5bULL,
    0xb5178c6fc5b6cb5bULL, 0xb5178c6fc5b6cb5bULL, 0x36dfad5b716b0f7eULL,
    0xefc425fc14341865ULL, 0xefc425fc14341865ULL, 0xefc425fc14341865ULL,
    0xda4c4b690486bc76ULL, 0xda4c4b690486bc76ULL, 0xda4c4b690486bc76ULL,
    0xda4c4b690486bc76ULL, 0xd58f5ee4358e90cbULL, 0xd58f5ee4358e90cbULL,
    0xd58f5ee4358e90cbULL, 0xd58f5ee4358e90cbULL, 0xc5727ebb9cd8e234ULL,
    0xc5727ebb9cd8e234ULL, 0xc5727ebb9cd8e234ULL, 0xc5727ebb9cd8e234ULL,
    0x0a0ae76cd5c1ca42ULL, 0x0a0ae76cd5c1ca42ULL, 0x650b6f165ca95760ULL,
    0x650b6f165ca95760ULL, 0x2937a4b63b091cd2ULL, 0xdf2041b555f67cb6ULL,
    0xec54871c5f8bec2aULL, 0xec54871c5f8bec2aULL, 0xa170aeb4dd4ea3ccULL,
    0xa170aeb4dd4ea3ccULL, 0x0437500b74d86998ULL, 0x0437500b74d86998ULL,
    0x3cd3da962e2d618cULL, 0x3cd3da962e2d618cULL, 0xfbb6e5f5edcc3e24ULL,
    0xfbb6e5f5edcc3e24ULL, 0x4ab898df50defd6bULL, 0xf06ca5eef8e9f621ULL,
    0xb6543b3a9ff62aaaULL, 0xecf1fc605d58f64cULL, 0x8450aedfd870fb55ULL,
    0x0ebd1b7eff46c159ULL, 0x57e8cc5d0e1ece34ULL, 0xf31487009ed685e9ULL,
    0x7d67c01e98523527ULL, 0xa082ae5603489cc3ULL, 0x6060ae3d2a37e64bULL,
    0x27a1599183e6a4cfULL, 0xd0fbe7b291e33574ULL, 0xb1c5209d7b2ff471ULL,
    0x9c1d22ecf5705caeULL, 0xc5f8c8d27c93e09dULL, 0xc2d0e983ae045898ULL,
    0x6208009e8f449d94ULL, 0x896b5c4ad63088fdULL, 0xb01f85e56d16ed97ULL,
    0x5fc536e4844f52beULL, 0x0f752726a8449939ULL, 0x08546e07baeff6dbULL,
    0xf9494b559c4663e5ULL, 0xda4c4b690486bc76ULL, 0xd58f5ee4358e90cbULL,
    0xc5727ebb9cd8e234ULL, 0x7d764c3aad9e9e41ULL, 0x6e24a604f9f8bf0fULL,
};

}  // namespace

TEST_F(QueryDialectTest, AnswerBytesMatchTheParent) {
  ingest(23);
  // Edge values under job "e", rank 0: -0; two 1.7e308 records in one
  // window, whose sum overflows so that the window's avg prints null;
  // integers at and past 1e6 and values just inside it; 1e-5; and three
  // names the escaper must rewrite.
  {
    std::vector<std::unique_ptr<Transport>> sources;
    Frame hello;
    hello.kind = FrameKind::kHello;
    hello.hello.job = "e";
    hello.hello.rank = 0;
    hello.hello.worldSize = 1;
    hello.hello.hostname = "node\"0001";
    hello.hello.pid = 7;
    Frame batch;
    batch.kind = FrameKind::kBatch;
    batch.timeSeconds = 42.75;
    const auto id = [](std::string_view name) { return names::intern(name); };
    batch.records = {
        {41.25, id("neg0"), -0.0},      {41.25, id("huge"), 1.7e308},
        {41.75, id("huge"), 1.7e308},   {41.25, id("big"), 1e6},
        {41.5, id("big"), 1234567.0},   {41.75, id("big"), 2.5e9},
        {42.25, id("big"), -1e6},       {42.5, id("big"), 999999.5},
        {42.75, id("big"), -999999.0},  {41.5, id("tiny"), 1e-5},
        {42.5, id("tiny"), 0.1},        {41.5, id(kQuoteName), 1.0},
        {41.5, id(kBackslashName), 2.0}, {41.5, id(kControlName), 3.0},
    };
    for (PipeHub* hub : {&engineHub_, &storeHub_}) {
      sources.push_back(hub->makeClientTransport());
      ASSERT_TRUE(sources.back()->connect());
      ASSERT_TRUE(sources.back()->send(encodeFrame(hello)));
      ASSERT_TRUE(sources.back()->send(encodeFrame(batch)));
    }
    withEngine_->poll(43.0);
    storeOnly_->poll(43.0);
  }
  Catalog catalog;
  for (const char* name : {"root", "group\"1", "node\\2"}) {
    CatalogEntry entry;
    entry.role = name[0] == 'r' ? DaemonRole::kRoot : DaemonRole::kGroup;
    entry.name = name;
    entry.host = "host\n0";
    entry.port = 4000;
    entry.shardHi = 1000;
    catalog.announce(entry, 40.5);
  }
  storeOnly_->attachCatalog(&catalog);

  // Every entry point, every op it answers.  Each answer is taken in
  // this order; the read plane's counters and cache, which its stats
  // answer prints, depend on it.
  enum : unsigned { kWire = 1, kPost = 2, kGet = 4, kOffline = 8 };
  struct Request {
    std::string op;
    Params params;
    unsigned entryPoints;
  };
  const unsigned kAll = kWire | kPost | kGet | kOffline;
  const std::vector<Request> requests = {
      {"snapshot", {}, kAll},
      {"snapshot", {{"job", "e"}}, kAll},
      {"snapshot", {{"job", "a"}, {"rank", "1"}}, kAll},
      {"snapshot", {{"metric", "m1"}}, kAll},
      {"snapshot", {{"rank", "0"}, {"metric", kQuoteName}}, kAll},
      {"range", {{"job", "a"}, {"rank", "1"}, {"metric", "m0"}}, kAll},
      {"range",
       {{"job", "b"}, {"rank", "2"}, {"metric", "m2"}, {"t0", "5"},
        {"t1", "25.5"}},
       kAll},
      {"range",
       {{"job", "a"}, {"rank", "0"}, {"metric", "m1"},
        {"resolution", "coarse"}},
       kAll},
      {"range", {{"job", "e"}, {"metric", "huge"}}, kAll},
      {"range", {{"job", "e"}, {"metric", "neg0"}}, kAll},
      {"range", {{"job", "e"}, {"metric", "big"}}, kAll},
      {"range",
       {{"job", "e"}, {"metric", "big"}, {"resolution", "coarse"}},
       kAll},
      {"range", {{"job", "e"}, {"metric", "tiny"}}, kAll},
      {"range", {{"job", "e"}, {"metric", kControlName}}, kAll},
      {"range", {{"job", "e"}, {"metric", kBackslashName}}, kAll},
      {"range", {{"job", "a"}, {"rank", "0"}}, kAll},  // no metric
      {"snapshot", {{"resolution", "huge"}}, kAll},
      {"nope", {}, kAll},
      {"sources", {}, kWire | kOffline},
      {"dashboard", {}, kWire},
      {"catalog", {}, kWire},
      {"series", {}, kPost | kGet},
      {"window", {{"metric", "m0"}, {"window_s", "5"}}, kPost | kGet},
      {"window", {{"metric", "big"}, {"window_s", "30"}}, kPost | kGet},
      {"export",
       {{"metric", "m2"}, {"t0", "10"}, {"t1", "20"},
        {"resolution", "coarse"}},
       kPost | kGet},
      {"export", {{"job", "e"}}, kPost | kGet},
      {"stats", {}, kPost | kGet | kOffline},
  };
  std::vector<std::string> labels;
  std::vector<std::string> answers;
  auto take = [&](const std::string& label, std::string answer) {
    labels.push_back(label);
    answers.push_back(std::move(answer));
  };
  for (const Request& request : requests) {
    const std::string json = jsonOf(request.op, request.params);
    if ((request.entryPoints & kWire) != 0) {
      take("wire (engine) " + json, withEngine_->query(json));
      take("wire (store) " + json, storeOnly_->query(json));
    }
    if ((request.entryPoints & kPost) != 0) {
      take("POST " + json,
           service_->execute(json, QueryClass::kLive, kNow).body);
    }
    if ((request.entryPoints & kGet) != 0) {
      take("GET " + json, service_
                              ->executeParams(request.op, request.params,
                                              QueryClass::kLive, kNow)
                              .body);
    }
  }

  // Whole HTTP responses: 200s from the read plane and the health
  // document, a 404, and a 429 with its Retry-After header.
  QueryServiceOptions shedAll;
  shedAll.maxQueriesPerPoll = 0;
  shedAll.retryAfterSeconds = 1.25;
  QueryService shedding(*withEngine_, shedAll);
  const std::string post = R"({"op":"snapshot","job":"e"})";
  const std::vector<std::pair<QueryService*, std::string>> http = {
      {service_.get(),
       "GET /api/query?op=range&job=e&rank=0&metric=big HTTP/1.1\r\n\r\n"},
      {service_.get(), "GET /api/query?op=snapshot&metric=q%22uote "
                       "HTTP/1.1\r\nConnection: close\r\n\r\n"},
      {service_.get(), "POST /query HTTP/1.1\r\nContent-Length: " +
                           std::to_string(post.size()) + "\r\n\r\n" + post},
      {service_.get(), "GET /healthz HTTP/1.1\r\n\r\n"},
      {service_.get(), "GET /api/stats HTTP/1.0\r\n\r\n"},
      {service_.get(), "GET /missing HTTP/1.1\r\n\r\n"},
      {&shedding, "GET /api/query?op=series HTTP/1.1\r\n\r\n"},
  };
  for (const auto& [service, bytes] : http) {
    PipeHub hub;
    HttpServer server(hub.makeServer());
    mountDaemonEndpoints(server, *withEngine_, [] { return kNow; },
                         {{"job", "j"}, {"role", "daemon"}}, service);
    const std::unique_ptr<Transport> client = hub.makeClientTransport();
    ASSERT_TRUE(client->connect());
    ASSERT_TRUE(client->send(bytes));
    std::string response;
    for (int i = 0; i < 3; ++i) {
      server.poll(kNow);
      client->receive(response);
    }
    take("HTTP " + bytes.substr(0, bytes.find('\r')), response);
  }

  const std::unique_ptr<tsdb::Engine> offline = sealAndReopen();
  for (const Request& request : requests) {
    if ((request.entryPoints & kOffline) != 0) {
      const std::string json = jsonOf(request.op, request.params);
      std::string answer = runQuery(*offline, json);
      // The data dir's name holds the test's pid.
      if (const std::size_t at = answer.find(dir_.string());
          at != std::string::npos) {
        answer.replace(at, dir_.string().size(), "DIR");
      }
      take("offline " + json, std::move(answer));
    }
  }

  std::string table;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL,",
                  static_cast<unsigned long long>(fnv1a(answers[i])));
    table += (i % 3 == 0 ? "\n    " : " ");
    table += hex;
  }
  ASSERT_EQ(answers.size(), std::size(kParentAnswers))
      << "FNV-1a of every answer:" << table;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(fnv1a(answers[i]), kParentAnswers[i])
        << labels[i] << " answered\n"
        << answers[i];
  }
  // The edge values reached the answers: an overflowed avg is null, a
  // -0 minimum keeps its sign, integers from 1e6 on print in the
  // shortest form, and control bytes escape as lowercase \u00xx.
  const std::string& huge = answers[8 * 4];
  EXPECT_NE(huge.find(R"("avg":null)"), std::string::npos) << huge;
  const std::string& neg0 = answers[9 * 4];
  EXPECT_NE(neg0.find(R"("min":-0,)"), std::string::npos) << neg0;
  const std::string& big = answers[10 * 4];
  EXPECT_NE(big.find(R"("min":1e+06,)"), std::string::npos) << big;
  EXPECT_NE(big.find(R"("max":2.5e+09,)"), std::string::npos) << big;
  const std::string& escaped = answers[13 * 4];
  EXPECT_NE(escaped.find(R"("metric":"ctl\u0001byte\ttab\u001besc")"),
            std::string::npos)
      << escaped;
}

namespace {

/// Requests the query tests send, as the mutation run's seeds.
const std::vector<std::string> kJsonSeeds = {
    R"({"op":"snapshot","rank":0})",
    R"({"op":"snapshot","rank":9})",
    R"({"op":"snapshot","job":"a","rank":1,"metric":"m0"})",
    R"({"op":"range","job":"job","rank":0,"metric":"hwt.0.user_pct","t0":0,"t1":10})",
    R"({"op":"range","metric":"m1","job":"b","rank":2,"t0":0,"t1":60,"resolution":"coarse"})",
    R"({"op":"sources"})",
    R"({"op":"dashboard"})",
    R"({"op":"catalog"})",
    R"({"op":"series"})",
    R"({"op":"stats"})",
    R"({"op":"export","metric":"m2"})",
    R"({"op":"window","metric":"m0","window_s":60})",
    R"({"op":"window","metric":"m","window_s":0})",
    R"({"op":"snapshot","resolution":"huge"})",
    R"({"op":"snapshot","rank":-2147483648})",
    R"({"op":"nope"})",
    R"({"op":"range"})",
    "{{{",
    "[1,2]",
};
const std::vector<std::string> kGetSeeds = {
    "/api/query?op=snapshot&metric=m0",
    "/api/query?op=series",
    "/api/query?op=range&job=a&rank=0&metric=m1&t0=-inf&t1=inf",
    "/api/query?op=range&metric=m&t0=abc",
    "/api/query?op=window&metric=m2&window_s=60",
    "/api/query?op=export&class=bulk&metric=m0",
    "/api/query?op=snapshot&rank=1e300",
    "/api/query?op=stats",
};
const std::vector<std::string> kFields = {
    "op", "job", "rank", "metric", "t0", "t1", "resolution", "window_s", "x"};
const std::vector<std::string> kJsonValues = {
    "null", "true", "[]", "{}", "[1,2]", R"({"a":1})", R"("fine")",
    R"("coarse")", R"("huge")", R"("")", R"("m0")", R"("a")", R"("range")",
    R"("snapshot")", R"("window")", R"("export")", R"("\u0000")", "0", "-1",
    "3.5", "-0", "1e308", "-1e308", "5e-324", "1e999", "2147483648",
    "-2147483649", "9007199254740993", "NaN", "Infinity", "1e-400"};
const std::vector<std::string> kGetValues = {
    "", "inf", "-inf", "nan", "1e308", "-1e308", "5e-324", "1e999", "-0",
    "2147483648", "-2147483649", "0x10", " 1", "1 ", "%00", "%zz", "%",
    "abc", "fine", "coarse", "huge", "m0", "a", "range", "window", "export"};

std::size_t below(stats::SplitMix64& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.nextBelow(n));
}

/// One to three mutations of `text`: byte flips, inserts, deletes and
/// truncation, a duplicated key, or a value swapped for one of another
/// type or a huge or non-finite number.  `get` picks the GET form's
/// separators and values.
std::string mutate(stats::SplitMix64& rng, std::string text, bool get) {
  const std::vector<std::string>& values = get ? kGetValues : kJsonValues;
  const std::string alphabet =
      get ? "&=%+?/.-0123456789abcdefinx" : "{}[]\":,.-+eE0123456789 \\nul";
  const std::size_t edits = 1 + below(rng, 3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = below(rng, text.size() + 1);
    switch (below(rng, 7)) {
      case 0:  // flip a bit
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1 << below(rng, 8)));
        }
        break;
      case 1:  // insert a byte
        text.insert(at, 1,
                    below(rng, 4) == 0
                        ? static_cast<char>(below(rng, 256))
                        : alphabet[below(rng, alphabet.size())]);
        break;
      case 2:  // delete a byte
        if (at < text.size()) {
          text.erase(at, 1);
        }
        break;
      case 3:  // truncate
        text.resize(at);
        break;
      case 4: {  // duplicate a key
        const std::string& field = kFields[below(rng, kFields.size())];
        const std::string& value = values[below(rng, values.size())];
        if (get) {
          text += "&" + field + "=" + value;
        } else if (const std::size_t open = text.find('{');
                   open != std::string::npos) {
          text.insert(open + 1, "\"" + field + "\":" + value + ",");
        }
        break;
      }
      default: {  // swap a value for another type, or a huge number
        const std::size_t sep = text.find(get ? '=' : ':', at);
        if (sep == std::string::npos) {
          break;
        }
        const std::size_t end = text.find_first_of(get ? "&" : ",}", sep + 1);
        text.replace(sep + 1,
                     (end == std::string::npos ? text.size() : end) - sep - 1,
                     values[below(rng, values.size())]);
        break;
      }
    }
  }
  return text;
}

/// An answer is a whole JSON document: one object, newline-terminated.
bool wellFormed(const std::string& body) {
  return body.size() >= 3 && body.front() == '{' &&
         body.compare(body.size() - 2, 2, "}\n") == 0;
}

}  // namespace

TEST_F(QueryDialectTest, MutatedRequestsGetAnAnswerOrAnErrorNeverAThrow) {
  ingest(22);
  const std::unique_ptr<tsdb::Engine> offline = sealAndReopen();
  stats::SplitMix64 rng(2020);
  constexpr int kInputs = 10000;  // per form
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kInputs; ++i) {
    const std::string request =
        mutate(rng, kJsonSeeds[below(rng, kJsonSeeds.size())], false);
    const std::string wire = storeOnly_->query(request);
    EXPECT_TRUE(wellFormed(wire)) << request << " -> " << wire;
    const std::string answer = runQuery(*offline, request);
    EXPECT_TRUE(wellFormed(answer)) << request << " -> " << answer;
    const QueryResult post =
        service_->execute(request, QueryClass::kLive, kNow);
    EXPECT_TRUE(post.status == 200 || post.status == 400)
        << request << " -> " << post.status;
    EXPECT_TRUE(wellFormed(post.body)) << request << " -> " << post.body;

    const std::string target =
        mutate(rng, kGetSeeds[below(rng, kGetSeeds.size())], true);
    Params params = parseQueryString(target);
    std::string op;
    if (const auto it = params.find("op"); it != params.end()) {
      op = it->second;
      params.erase(it);
    }
    params.erase("class");
    const QueryResult get =
        service_->executeParams(op, params, QueryClass::kLive, kNow);
    EXPECT_TRUE(get.status == 200 || get.status == 400)
        << target << " -> " << get.status;
    EXPECT_TRUE(wellFormed(get.body)) << target << " -> " << get.body;
    if (HasFailure()) {
      return;  // one reported input is enough
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  RecordProperty("inputs", 2 * kInputs);
  RecordProperty("milliseconds", static_cast<int>(seconds * 1e3));
  // Both forms produced errors and answers: the run reached the op bodies.
  const QueryServiceCounters counters = service_->counters();
  EXPECT_GT(counters.badRequests, 1000U);
  EXPECT_GT(counters.served, 1000U);
}

namespace {

/// One to three mutations of a JSON document: bit flips, truncation, an
/// inserted structural character or digit, or a duplicated span.
std::string mutateDocument(stats::SplitMix64& rng, std::string text) {
  static const std::string kInserts = "{[\"\\,0123456789";
  const std::size_t edits = 1 + below(rng, 3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = below(rng, text.size() + 1);
    switch (below(rng, 4)) {
      case 0:  // flip a bit
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1 << below(rng, 8)));
        }
        break;
      case 1:  // truncate
        text.resize(at);
        break;
      case 2:  // insert a structural character or a digit
        text.insert(at, 1, kInserts[below(rng, kInserts.size())]);
        break;
      default: {  // duplicate a span
        const std::size_t from = below(rng, text.size() + 1);
        const std::size_t length =
            std::min<std::size_t>(below(rng, text.size() - from + 1), 4096);
        text.insert(at, text.substr(from, length));
        break;
      }
    }
  }
  return text;
}

}  // namespace

TEST(Json, MutatedDocumentsParseOrThrowParseError) {
  trace::MetricsRegistry::instance().reset();
  PipeHub hub;
  Aggregator daemon(hub.makeServer());
  QueryService service(daemon);
  const std::unique_ptr<Transport> source = hub.makeClientTransport();
  ASSERT_TRUE(source->connect());
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.hello.job = "a";
  hello.hello.hostname = "node0000";
  ASSERT_TRUE(source->send(encodeFrame(hello)));
  NameRefs names;  // the connection's name table
  stats::SplitMix64 values(24);
  for (int second = 0; second < 12; ++second) {
    Frame batch;
    batch.kind = FrameKind::kBatch;
    batch.timeSeconds = second + 0.5;
    for (const char* metric : kMetrics) {
      batch.records.push_back({second + 0.5, names::intern(metric),
                               values.nextDouble() * 1e3 - 5e2});
    }
    ASSERT_TRUE(source->send(encodeFrame(batch, names)));
    daemon.poll(second + 1.0);
  }
  service.beginPoll(12.0);
  auto read = [&](const std::string& request) {
    return service.execute(request, QueryClass::kLive, 12.0).body;
  };
  const std::vector<std::string> answers = {
      read(R"({"op":"snapshot"})"),
      read(R"({"op":"range","job":"a","rank":0,"metric":"m0"})"),
      read(R"({"op":"range","job":"a","rank":0,"metric":"m1",)"
           R"("resolution":"coarse"})"),
      read(R"({"op":"window","metric":"m2","window_s":5})"),
      daemon.query(R"({"op":"sources"})"),
      read(R"({"op":"stats"})"),
  };
  for (const std::string& answer : answers) {
    ASSERT_NO_THROW(json::parse(answer)) << answer;
  }

  stats::SplitMix64 rng(2424);
  constexpr int kInputs = 10000;
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < kInputs; ++i) {
    const std::string text =
        mutateDocument(rng, answers[below(rng, answers.size())]);
    try {
      (void)json::parse(text);
      ++parsed;
    } catch (const ParseError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what() << " on\n" << text;
      break;
    } catch (...) {
      ADD_FAILURE() << "threw a non-exception on\n" << text;
      break;
    }
  }
  RecordProperty("parsed", parsed);
  // Both outcomes were reached: some edits keep a document valid.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, kInputs / 2);
  trace::MetricsRegistry::instance().reset();
}
