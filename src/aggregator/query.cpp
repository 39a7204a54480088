#include "aggregator/query.hpp"

#include <algorithm>
#include <sstream>

#include "aggregator/catalog.hpp"
#include "aggregator/daemon.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "tsdb/engine.hpp"

namespace zerosum::aggregator {

namespace {

std::string errorResponse(const std::string& message) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject().field("error", message).endObject();
  return out.str();
}

void writeRollup(json::Writer& w, const WindowRollup& row) {
  w.beginObject()
      .field("t", row.windowStartSeconds)
      .field("window_s", row.windowSeconds)
      .field("min", row.rollup.min)
      .field("avg", row.rollup.avg())
      .field("max", row.rollup.max)
      .field("count", row.rollup.count)
      .endObject();
}

std::string handleSources(const Aggregator& daemon) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject().key("sources").beginArray();
  for (const auto& info : daemon.sources()) {
    w.beginObject()
        .field("job", info.hello.job)
        .field("rank", static_cast<std::int64_t>(info.hello.rank))
        .field("world_size",
               static_cast<std::int64_t>(info.hello.worldSize))
        .field("hostname", info.hello.hostname)
        .field("pid", static_cast<std::int64_t>(info.hello.pid))
        .field("state", std::string(sourceStateName(info.state)))
        .field("first_seen_s", info.firstSeenSeconds)
        .field("last_seen_s", info.lastSeenSeconds)
        .field("batches", info.batches)
        .field("records", info.records)
        .key("health")
        .beginObject()
        .field("samples_taken", info.health.samplesTaken)
        .field("samples_degraded", info.health.samplesDegraded)
        .field("samples_dropped", info.health.samplesDropped)
        .field("loop_overruns", info.health.loopOverruns)
        .field("quarantined",
               static_cast<std::uint64_t>(info.health.quarantined))
        .endObject()
        .endObject();
  }
  w.endArray().endObject();
  return out.str();
}

std::string handleSnapshot(const Aggregator& daemon, const json::Value& req) {
  std::optional<int> rankFilter;
  if (const json::Value* rank = req.find("rank")) {
    rankFilter = rankFromNumber(rank->asNumber());
  }
  std::optional<std::string> jobFilter;
  if (const json::Value* job = req.find("job")) {
    jobFilter = job->asString();
  }
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject().key("series").beginArray();
  const auto writeSeries = [&w](const SeriesKey& key,
                                const tsdb::NewestWindows& newest) {
    w.beginObject()
        .field("job", key.job)
        .field("rank", static_cast<std::int64_t>(key.rank))
        .field("metric", key.metric);
    if (newest.fine) {
      w.key("fine");
      writeRollup(w, *newest.fine);
    }
    if (newest.coarse) {
      w.key("coarse");
      writeRollup(w, *newest.coarse);
    }
    w.endObject();
  };
  // With a persistence engine attached, the engine is a strict superset
  // of the store (everything ingested was appended), so snapshots come
  // from it — series survive daemon restarts and store retention.
  if (const tsdb::Engine* engine = daemon.engine()) {
    engine->forEachNewest(jobFilter, rankFilter, writeSeries);
  } else {
    const RollupStore& store = daemon.store();
    for (const auto& key : store.keys()) {
      if ((jobFilter && key.job != *jobFilter) ||
          (rankFilter && key.rank != *rankFilter)) {
        continue;
      }
      writeSeries(key, {store.latest(key, Resolution::kFine),
                        store.latest(key, Resolution::kCoarse)});
    }
  }
  w.endArray().endObject();
  return out.str();
}

std::string handleRange(const Aggregator& daemon, const json::Value& req) {
  const json::Value* metric = req.find("metric");
  if (metric == nullptr) {
    return errorResponse("range query requires \"metric\"");
  }
  SeriesKey key;
  key.job = req.stringOr("job", "");
  key.rank = rankFromNumber(req.numberOr("rank", 0.0));
  key.metric = metric->asString();
  const double t0 = req.numberOr("t0", 0.0);
  const double t1 = req.numberOr("t1", 1e18);
  const std::string res = req.stringOr("resolution", "fine");
  if (res != "fine" && res != "coarse") {
    return errorResponse("resolution must be \"fine\" or \"coarse\"");
  }
  const Resolution resolution =
      res == "coarse" ? Resolution::kCoarse : Resolution::kFine;
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject()
      .field("job", key.job)
      .field("rank", static_cast<std::int64_t>(key.rank))
      .field("metric", key.metric)
      .field("resolution", res)
      .key("windows")
      .beginArray();
  const auto rows = daemon.engine() != nullptr
                        ? daemon.engine()->range(key, t0, t1, resolution)
                        : daemon.store().range(key, t0, t1, resolution);
  for (const auto& row : rows) {
    writeRollup(w, row);
  }
  w.endArray().endObject();
  return out.str();
}

std::string handleCatalog(const Aggregator& daemon) {
  const Catalog* catalog = daemon.catalog();
  if (catalog == nullptr) {
    return errorResponse("this daemon hosts no catalog");
  }
  return catalog->toJson(daemon.lastPollSeconds());
}

std::string handleDashboard(const Aggregator& daemon) {
  double now = 0.0;
  for (const auto& info : daemon.sources()) {
    now = std::max(now, info.lastSeenSeconds);
  }
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject().field("text", daemon.dashboard(now)).endObject();
  return out.str();
}

}  // namespace

std::string runQuery(const Aggregator& daemon,
                     const std::string& requestJson) {
  try {
    const json::Value req = json::parse(requestJson);
    if (!req.isObject()) {
      return errorResponse("request must be a JSON object");
    }
    const std::string op = req.stringOr("op", "");
    if (op == "sources") {
      return handleSources(daemon);
    }
    if (op == "snapshot") {
      return handleSnapshot(daemon, req);
    }
    if (op == "range") {
      return handleRange(daemon, req);
    }
    if (op == "dashboard") {
      return handleDashboard(daemon);
    }
    if (op == "catalog") {
      return handleCatalog(daemon);
    }
    return errorResponse("unknown op \"" + op + "\"");
  } catch (const Error& e) {
    return errorResponse(e.what());
  } catch (const std::exception& e) {
    return errorResponse(std::string("internal: ") + e.what());
  }
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
