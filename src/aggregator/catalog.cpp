#include "aggregator/catalog.hpp"

#include <algorithm>

#include "aggregator/query.hpp"
#include "common/json.hpp"

namespace zerosum::aggregator {

Catalog::Catalog(CatalogOptions options) : options_(options) {}

AnnounceResult Catalog::announce(const CatalogEntry& entry,
                                 double nowSeconds) {
  AnnounceResult result;
  result.ttlSeconds = options_.ttlSeconds;
  if (entry.name.empty()) {
    return result;  // unnamed daemons cannot be resolved; reject
  }
  auto it = records_.find(entry.name);
  if (it != records_.end() && nowSeconds <= it->second.deadline) {
    const std::uint64_t stored = it->second.entry.generation;
    if (entry.generation != 0 && entry.generation < stored) {
      ++counters_.staleRejected;
      result.generation = stored;
      return result;
    }
    Record& record = it->second;
    const std::uint64_t granted =
        entry.generation == 0 ? stored : entry.generation;
    if (granted > stored) {
      ++counters_.generationBumps;
    }
    record.entry = entry;
    record.entry.generation = granted;
    record.deadline = nowSeconds + options_.ttlSeconds;
    ++counters_.announces;
    result.accepted = true;
    result.generation = granted;
    return result;
  }
  // New name, or the previous record already expired: (re)register.  A
  // generation-0 announce after expiry restarts at the old generation + 1
  // when the stale record is still around, else at 1 — so "expired then
  // rebooted" still reads as a later incarnation.
  std::uint64_t granted = entry.generation;
  if (granted == 0) {
    granted = it != records_.end() ? it->second.entry.generation + 1 : 1;
  }
  Record record;
  record.entry = entry;
  record.entry.generation = granted;
  record.deadline = nowSeconds + options_.ttlSeconds;
  records_[entry.name] = record;
  ++counters_.announces;
  ++counters_.registrations;
  result.accepted = true;
  result.generation = granted;
  return result;
}

std::size_t Catalog::expire(double nowSeconds) {
  std::size_t dropped = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    if (nowSeconds > it->second.deadline) {
      it = records_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  counters_.expired += dropped;
  return dropped;
}

std::vector<CatalogEntry> Catalog::entries(double nowSeconds) const {
  std::vector<CatalogEntry> out;
  out.reserve(records_.size());
  for (const auto& [name, record] : records_) {
    if (nowSeconds <= record.deadline) {
      out.push_back(record.entry);
    }
  }
  return out;
}

std::vector<CatalogEntry> Catalog::entriesByRole(DaemonRole role,
                                                 double nowSeconds) const {
  std::vector<CatalogEntry> out;
  for (const auto& [name, record] : records_) {
    if (record.entry.role == role && nowSeconds <= record.deadline) {
      out.push_back(record.entry);
    }
  }
  return out;
}

std::optional<CatalogEntry> Catalog::find(const std::string& name,
                                          double nowSeconds) const {
  const auto it = records_.find(name);
  if (it == records_.end() || nowSeconds > it->second.deadline) {
    return std::nullopt;
  }
  return it->second.entry;
}

std::string Catalog::toJson(double nowSeconds) const {
  std::string out;
  json::Writer writer(out);
  writer.beginObject();
  writer.key("entries").beginArray();
  for (const auto& [name, record] : records_) {
    if (nowSeconds > record.deadline) {
      continue;
    }
    const CatalogEntry& e = record.entry;
    writer.beginObject()
        .field("role", daemonRoleName(e.role))
        .field("name", e.name)
        .field("host", e.host)
        .field("port", static_cast<std::int64_t>(e.port))
        .field("shard_lo", static_cast<std::uint64_t>(e.shardLo))
        .field("shard_hi", static_cast<std::uint64_t>(e.shardHi))
        .field("generation", e.generation)
        .field("ttl_remaining_seconds", record.deadline - nowSeconds)
        .endObject();
  }
  writer.endArray();
  writer.endObject();
  return out;
}

std::optional<std::vector<CatalogEntry>> Catalog::parseJson(
    const std::string& text) {
  try {
    const json::Value doc = json::parse(text);
    const json::Value* list = doc.find("entries");
    if (list == nullptr || !list->isArray()) {
      return std::nullopt;
    }
    std::vector<CatalogEntry> out;
    for (const json::Value& item : list->asArray()) {
      if (!item.isObject()) {
        return std::nullopt;
      }
      CatalogEntry e;
      e.role = daemonRoleFromString(item.stringOr("role", "node"));
      e.name = item.stringOr("name", "");
      e.host = item.stringOr("host", "");
      e.port = static_cast<std::int32_t>(item.numberOr("port", 0.0));
      e.shardLo = static_cast<std::uint32_t>(item.numberOr("shard_lo", 0.0));
      e.shardHi = static_cast<std::uint32_t>(
          item.numberOr("shard_hi", kShardSpace - 1));
      e.generation =
          static_cast<std::uint64_t>(item.numberOr("generation", 0.0));
      if (e.name.empty() || e.shardLo > e.shardHi ||
          e.shardHi >= kShardSpace) {
        return std::nullopt;
      }
      out.push_back(std::move(e));
    }
    return out;
  } catch (...) {
    return std::nullopt;  // malformed document = catalog unreachable
  }
}

std::optional<std::vector<CatalogEntry>> resolveCatalog(
    Transport& transport, const std::function<void()>& idle, int maxIdles) {
  const auto response =
      requestOverTransport(transport, "{\"op\":\"catalog\"}", idle, maxIdles);
  if (!response) {
    return std::nullopt;
  }
  return Catalog::parseJson(*response);
}

}  // namespace zerosum::aggregator
