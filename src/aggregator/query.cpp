#include "aggregator/query.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "aggregator/catalog.hpp"
#include "aggregator/daemon.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "tsdb/engine.hpp"

namespace zerosum::aggregator {

namespace {

const char* resolutionName(Resolution resolution) {
  return resolution == Resolution::kCoarse ? "coarse" : "fine";
}

/// Sets `request.resolution` from its text, or its error.
void parseResolution(const std::string& text, QueryRequest& request) {
  if (text != "fine" && text != "coarse") {
    request.error = "resolution must be \"fine\" or \"coarse\"";
    return;
  }
  request.resolution = text == "coarse" ? Resolution::kCoarse
                                        : Resolution::kFine;
}

/// The checks that need the whole request: its op, then what the op asks.
void validate(QueryRequest& request, std::span<const std::string_view> ops) {
  if (std::find(ops.begin(), ops.end(), request.op) == ops.end()) {
    request.error = "unknown op \"" + request.op + "\"";
    return;
  }
  if ((request.op == "range" || request.op == "window") &&
      request.metric.empty()) {
    request.error = request.op + " query requires \"metric\"";
    return;
  }
  if (std::isnan(request.t0) || std::isnan(request.t1)) {
    request.error = "t0 and t1 must not be NaN";
    return;
  }
  if (request.op == "window" && !(request.windowSeconds > 0.0)) {
    request.error = "window_s must be > 0";
  }
}

void writeWindowRow(json::Writer& w, const WindowRollup& row) {
  w.beginObject()
      .field("t", row.windowStartSeconds)
      .field("window_s", row.windowSeconds)
      .field("min", row.rollup.min)
      .field("avg", row.rollup.avg())
      .field("max", row.rollup.max)
      .field("count", row.rollup.count)
      .endObject();
}

/// Opens a series entry: its key fields.
void writeKey(json::Writer& w, const SeriesKey& key) {
  w.beginObject()
      .field("job", key.jobName())
      .field("rank", static_cast<std::int64_t>(key.rank))
      .field("metric", key.metricName());
}

/// The `sources` answer.  `live` adds the fields only a running daemon
/// knows: each source's state and its last health report.
std::string sourcesBody(const std::vector<SourceInfo>& sources, bool live) {
  std::string out;
  json::Writer w(out);
  w.beginObject().key("sources").beginArray();
  for (const SourceInfo& info : sources) {
    w.beginObject()
        .field("job", info.hello.job)
        .field("rank", static_cast<std::int64_t>(info.hello.rank))
        .field("world_size", static_cast<std::int64_t>(info.hello.worldSize))
        .field("hostname", info.hello.hostname)
        .field("pid", static_cast<std::int64_t>(info.hello.pid));
    if (live) {
      w.field("state", sourceStateName(info.state));
    }
    w.field("first_seen_s", info.firstSeenSeconds)
        .field("last_seen_s", info.lastSeenSeconds)
        .field("batches", info.batches)
        .field("records", info.records);
    if (live) {
      w.key("health")
          .beginObject()
          .field("samples_taken", info.health.samplesTaken)
          .field("samples_degraded", info.health.samplesDegraded)
          .field("samples_dropped", info.health.samplesDropped)
          .field("loop_overruns", info.health.loopOverruns)
          .field("quarantined",
                 static_cast<std::uint64_t>(info.health.quarantined))
          .endObject();
    }
    w.endObject();
  }
  w.endArray().endObject();
  out.push_back('\n');
  return out;
}

std::string dashboardBody(const Aggregator& daemon) {
  double now = 0.0;
  for (const auto& info : daemon.sources()) {
    now = std::max(now, info.lastSeenSeconds);
  }
  std::string out;
  json::Writer w(out);
  w.beginObject().field("text", daemon.dashboard(now)).endObject();
  out.push_back('\n');
  return out;
}

std::string catalogBody(const Aggregator& daemon) {
  const Catalog* catalog = daemon.catalog();
  if (catalog == nullptr) {
    return errorBody("this daemon hosts no catalog");
  }
  std::string body = catalog->toJson(daemon.lastPollSeconds());
  body.push_back('\n');
  return body;
}

/// The engine's own counters: the offline `stats` answer.
std::string engineStatsBody(const tsdb::Engine& engine) {
  const tsdb::EngineCounters& c = engine.counters();
  std::string out;
  json::Writer w(out);
  w.beginObject()
      .field("data_dir", engine.dir())
      .field("segments", static_cast<std::uint64_t>(engine.segmentCount()))
      .field("segment_bytes", engine.segmentBytes())
      .field("wal_bytes", engine.walSizeBytes())
      .field("batches_appended", c.batchesAppended)
      .field("samples_appended", c.samplesAppended)
      .field("compactions", c.compactions)
      .field("segments_dropped", c.segmentsDropped)
      .field("wal_replayed_batches", c.walReplayedBatches)
      .field("wal_damaged_bytes", c.walDamagedBytes)
      .field("wal_repairs", c.walRepairs)
      .field("segments_rejected", c.segmentsRejected)
      .endObject();
  out.push_back('\n');
  return out;
}

/// The ops the wire and offline entry points read from a view.
std::string seriesOp(const ReadView& view, const QueryRequest& request) {
  return request.op == "snapshot" ? snapshotBody(view, request)
                                  : rangeBody(view, request);
}

/// Answers a parsed request with `run`, or with its error; what `run`
/// throws becomes an error answer too.
template <typename Run>
std::string answer(const QueryRequest& request, Run&& run) {
  if (!request.error.empty()) {
    return errorBody(request.error);
  }
  try {
    return run();
  } catch (const Error& e) {
    return errorBody(e.what());
  } catch (const std::exception& e) {
    return errorBody(std::string("internal: ") + e.what());
  }
}

}  // namespace

// --- parsing -----------------------------------------------------------------

QueryRequest parseQuery(const std::string& requestJson,
                        std::span<const std::string_view> ops) {
  QueryRequest request;
  try {
    const json::Value req = json::parse(requestJson);
    if (!req.isObject()) {
      request.error = "request must be a JSON object";
      return request;
    }
    request.op = req.stringOr("op", "");
    if (const json::Value* v = req.find("job")) {
      request.job = v->asString();
    }
    if (const json::Value* v = req.find("rank")) {
      request.rank = rankFromNumber(v->asNumber());
    }
    request.metric = req.stringOr("metric", "");
    request.t0 = req.numberOr("t0", 0.0);
    request.t1 = req.numberOr("t1", 1e18);
    parseResolution(req.stringOr("resolution", "fine"), request);
    request.windowSeconds = req.numberOr("window_s", 60.0);
  } catch (const std::exception& e) {
    request.error = std::string("bad request: ") + e.what();
  }
  if (request.error.empty()) {
    validate(request, ops);
  }
  return request;
}

QueryRequest parseQuery(const std::string& op,
                        const std::map<std::string, std::string>& params,
                        std::span<const std::string_view> ops) {
  QueryRequest request;
  request.op = op;
  auto number = [&](const std::string& name, double fallback,
                    bool* present = nullptr) {
    const auto it = params.find(name);
    if (it == params.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || (end != nullptr && *end != '\0')) {
      request.error = "parameter \"" + name + "\" is not a number";
      return fallback;
    }
    if (present != nullptr) *present = true;
    return v;
  };
  if (const auto it = params.find("job"); it != params.end()) {
    request.job = it->second;
  }
  bool hasRank = false;
  const double rank = number("rank", 0.0, &hasRank);
  try {
    if (hasRank) request.rank = rankFromNumber(rank);
  } catch (const ParseError& e) {
    request.error = e.what();
  }
  if (const auto it = params.find("metric"); it != params.end()) {
    request.metric = it->second;
  }
  request.t0 = number("t0", 0.0);
  request.t1 = number("t1", 1e18);
  if (const auto it = params.find("resolution"); it != params.end()) {
    parseResolution(it->second, request);
  }
  request.windowSeconds = number("window_s", 60.0);
  if (request.error.empty()) {
    validate(request, ops);
  }
  return request;
}

// --- op bodies ---------------------------------------------------------------

std::string errorBody(const std::string& message) {
  std::string out;
  json::Writer w(out);
  w.beginObject().field("error", message).endObject();
  out.push_back('\n');
  return out;
}

std::string seriesBody(const ReadView& view) {
  std::string out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", view.generation())
      .key("series")
      .beginArray();
  view.forEachKey(std::nullopt, std::nullopt, {}, [&w](const SeriesKey& key) {
    writeKey(w, key);
    w.endObject();
  });
  w.endArray().endObject();
  out.push_back('\n');
  return out;
}

std::string snapshotBody(const ReadView& view, const QueryRequest& request) {
  std::string out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", view.generation())
      .key("series")
      .beginArray();
  view.forEachNewest(request.job, request.rank, request.metric,
                     [&w](const SeriesKey& key, const NewestWindows& newest) {
                       writeKey(w, key);
                       if (newest.fine) {
                         w.key("fine");
                         writeWindowRow(w, *newest.fine);
                       }
                       if (newest.coarse) {
                         w.key("coarse");
                         writeWindowRow(w, *newest.coarse);
                       }
                       w.endObject();
                     });
  w.endArray().endObject();
  out.push_back('\n');
  return out;
}

std::string rangeBody(const ReadView& view, const QueryRequest& request) {
  const SeriesKey key = request.rangeKey();
  std::string out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", view.generation())
      .field("job", request.job.value_or(""))
      .field("rank", static_cast<std::int64_t>(key.rank))
      .field("metric", request.metric)
      .field("resolution", resolutionName(request.resolution))
      .key("windows")
      .beginArray();
  for (const WindowRollup& row :
       view.range(key, request.t0, request.t1, request.resolution)) {
    writeWindowRow(w, row);
  }
  w.endArray().endObject();
  out.push_back('\n');
  return out;
}

std::string windowBody(const ReadView& view, const QueryRequest& request,
                       double fineSpanSeconds, std::uint64_t& folded) {
  // Anchor the trailing window at the end of the metric's newest fine
  // window in the view (DESIGN.md §12 "Trailing windows").
  double anchor = 0.0;
  view.forEachNewest(std::nullopt, std::nullopt, request.metric,
                     [&anchor](const SeriesKey&, const NewestWindows& newest) {
                       if (newest.fine) {
                         anchor = std::max(anchor,
                                           newest.fine->windowStartSeconds +
                                               newest.fine->windowSeconds);
                       }
                     });
  // Fine windows while the span fits fine retention, coarse beyond it.
  const Resolution resolution = request.windowSeconds <= fineSpanSeconds
                                   ? Resolution::kFine
                                   : Resolution::kCoarse;
  std::string out;
  json::Writer w(out);
  w.beginObject()
      .field("generation", view.generation())
      .field("metric", request.metric)
      .field("window_s", request.windowSeconds)
      .field("anchor_s", anchor)
      .key("series")
      .beginArray();
  view.forEachKey(request.job, request.rank, request.metric,
                  [&](const SeriesKey& key) {
                    Rollup rollup;
                    std::uint64_t buckets = 0;
                    for (const WindowRollup& row :
                         view.range(key, anchor - request.windowSeconds,
                                    anchor, resolution)) {
                      rollup.combine(row.rollup);
                      ++buckets;
                    }
                    ++folded;
                    w.beginObject()
                        .field("job", key.jobName())
                        .field("rank", static_cast<std::int64_t>(key.rank))
                        .field("min", rollup.min)
                        .field("avg", rollup.avg())
                        .field("max", rollup.max)
                        .field("count", rollup.count)
                        .field("buckets", buckets)
                        .endObject();
                  });
  w.endArray().endObject();
  out.push_back('\n');
  return out;
}

std::string exportBody(const ReadView& view, const QueryRequest& request,
                       const char* source, const ReadGuard& guard) {
  std::vector<SeriesKey> keys;
  guard([&] {
    keys = view.seriesKeys(request.job, request.rank, request.metric);
  });
  std::string out;
  json::Writer w(out);
  w.beginObject()
      .field("source", source)
      .field("resolution", resolutionName(request.resolution))
      .key("series")
      .beginArray();
  for (const SeriesKey& key : keys) {
    std::vector<WindowRollup> rows;
    guard([&] {
      rows = view.range(key, request.t0, request.t1, request.resolution);
    });
    writeKey(w, key);
    w.key("windows").beginArray();
    for (const WindowRollup& row : rows) {
      writeWindowRow(w, row);
    }
    w.endArray().endObject();
  }
  w.endArray().endObject();
  out.push_back('\n');
  return out;
}

// --- entry points ------------------------------------------------------------

std::string runQuery(const Aggregator& daemon,
                     const std::string& requestJson) {
  const QueryRequest request = parseQuery(requestJson, kWireOps);
  return answer(request, [&]() -> std::string {
    if (request.op == "sources") {
      return sourcesBody(daemon.sources(), true);
    }
    if (request.op == "dashboard") {
      return dashboardBody(daemon);
    }
    if (request.op == "catalog") {
      return catalogBody(daemon);
    }
    // With a persistence engine attached, the engine is a strict superset
    // of the store (everything ingested was appended), so series come
    // from it: they survive daemon restarts and store retention.
    if (const tsdb::Engine* engine = daemon.engine()) {
      return seriesOp(*engine, request);
    }
    // Otherwise copy only what the op reads.
    const RollupStore& store = daemon.store();
    return seriesOp(
        request.op == "range"
            ? store.snapshotRange(request.rangeKey(), request.t0, request.t1,
                                  request.resolution)
            : store.snapshotNewest(request.job, request.rank, request.metric),
        request);
  });
}

std::string runQuery(const tsdb::Engine& engine,
                     const std::string& requestJson) {
  const QueryRequest request = parseQuery(requestJson, kOfflineOps);
  return answer(request, [&]() -> std::string {
    if (request.op == "sources") {
      std::vector<SourceInfo> sources;
      for (const tsdb::SourceRecord& record : engine.sources()) {
        sources.push_back(recoveredSource(record));
      }
      return sourcesBody(sources, false);
    }
    if (request.op == "stats") {
      return engineStatsBody(engine);
    }
    return seriesOp(engine, request);
  });
}

std::optional<std::string> requestOverTransport(
    Transport& transport, const std::string& requestJson,
    const std::function<void()>& idle, int maxIdles) {
  if (!transport.connect()) {
    return std::nullopt;
  }
  Frame query;
  query.kind = FrameKind::kQuery;
  query.text = requestJson;
  if (!transport.send(encodeFrame(query))) {
    return std::nullopt;
  }
  FrameReader reader;
  std::string bytes;
  for (int round = 0; round < maxIdles; ++round) {
    bytes.clear();
    const bool open = transport.receive(bytes);
    reader.feed(bytes);
    Frame frame;
    try {
      if (reader.next(frame)) {
        if (frame.kind == FrameKind::kResponse) {
          return frame.text;
        }
        return std::nullopt;  // protocol violation
      }
    } catch (const Error&) {
      return std::nullopt;
    }
    if (!open) {
      return std::nullopt;
    }
    if (idle) {
      idle();
    }
  }
  return std::nullopt;
}

}  // namespace zerosum::aggregator
