#include "tsdb/query.hpp"

#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "tsdb/engine.hpp"

namespace zerosum::tsdb {

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

std::string handleSources(const Engine& engine) {
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject().key("sources").beginArray();
  for (const SourceRecord& s : engine.sources()) {
    w.beginObject()
        .field("job", s.job)
        .field("rank", static_cast<std::int64_t>(s.rank))
        .field("world_size", static_cast<std::int64_t>(s.worldSize))
        .field("hostname", s.hostname)
        .field("pid", static_cast<std::int64_t>(s.pid))
        .field("first_seen_s", s.firstSeenSeconds)
        .field("last_seen_s", s.lastSeenSeconds)
        .field("batches", s.batches)
        .field("records", s.records)
        .endObject();
  }
  w.endArray().endObject();
  return out.str();
}

std::string handleSnapshot(const Engine& engine, const json::Value& req) {
  std::optional<int> rankFilter;
  if (const json::Value* rank = req.find("rank")) {
    rankFilter = aggregator::rankFromNumber(rank->asNumber());
  }
  std::optional<std::string> jobFilter;
  if (const json::Value* job = req.find("job")) {
    jobFilter = job->asString();
  }
  std::ostringstream out;
  json::Writer w(out);
  w.beginObject().key("series").beginArray();
  engine.forEachNewest(
      jobFilter, rankFilter,
      [&w](const SeriesKey& key, const NewestWindows& newest) {
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
      });
  w.endArray().endObject();
  return out.str();
}

std::string handleRange(const Engine& engine, const json::Value& req) {
  const json::Value* metric = req.find("metric");
  if (metric == nullptr) {
    return errorResponse("range query requires \"metric\"");
  }
  SeriesKey key;
  key.job = req.stringOr("job", "");
  key.rank = aggregator::rankFromNumber(req.numberOr("rank", 0.0));
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
  for (const WindowRollup& row : engine.range(key, t0, t1, resolution)) {
    writeRollup(w, row);
  }
  w.endArray().endObject();
  return out.str();
}

std::string handleStats(const Engine& engine) {
  const EngineCounters& c = engine.counters();
  std::ostringstream out;
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
  return out.str();
}

}  // namespace

std::string runQuery(const Engine& engine, const std::string& requestJson) {
  try {
    const json::Value req = json::parse(requestJson);
    if (!req.isObject()) {
      return errorResponse("request must be a JSON object");
    }
    const std::string op = req.stringOr("op", "");
    if (op == "sources") {
      return handleSources(engine);
    }
    if (op == "snapshot") {
      return handleSnapshot(engine, req);
    }
    if (op == "range") {
      return handleRange(engine, req);
    }
    if (op == "stats") {
      return handleStats(engine);
    }
    return errorResponse("unknown op \"" + op + "\"");
  } catch (const Error& e) {
    return errorResponse(e.what());
  } catch (const std::exception& e) {
    return errorResponse(std::string("internal: ") + e.what());
  }
}

}  // namespace zerosum::tsdb
