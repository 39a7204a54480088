#include "aggregator/faulttransport.hpp"

#include "common/env.hpp"
#include "common/error.hpp"

namespace zerosum::aggregator {

namespace {

std::optional<TransportFaultSite> siteFromName(const std::string& name) {
  for (const TransportFaultSite site : kAllTransportFaultSites) {
    if (name == transportFaultSiteName(site)) {
      return site;
    }
  }
  return std::nullopt;
}

std::optional<TransportFaultKind> kindFromName(const std::string& name) {
  if (name == "fail") {
    return TransportFaultKind::kFail;
  }
  if (name == "disconnect") {
    return TransportFaultKind::kDisconnect;
  }
  if (name == "timeout") {
    return TransportFaultKind::kTimeout;
  }
  if (name == "partial") {
    return TransportFaultKind::kPartial;
  }
  if (name == "short") {
    return TransportFaultKind::kShort;
  }
  if (name == "delay") {
    return TransportFaultKind::kDelay;
  }
  return std::nullopt;
}

std::size_t siteIndex(TransportFaultSite site) {
  return static_cast<std::size_t>(site);
}

}  // namespace

std::string transportFaultSiteName(TransportFaultSite site) {
  switch (site) {
    case TransportFaultSite::kConnect:
      return "connect";
    case TransportFaultSite::kSend:
      return "send";
    case TransportFaultSite::kReceive:
      return "recv";
  }
  return "unknown";
}

std::string transportFaultKindName(TransportFaultKind kind) {
  switch (kind) {
    case TransportFaultKind::kFail:
      return "fail";
    case TransportFaultKind::kDisconnect:
      return "disconnect";
    case TransportFaultKind::kTimeout:
      return "timeout";
    case TransportFaultKind::kPartial:
      return "partial";
    case TransportFaultKind::kShort:
      return "short";
    case TransportFaultKind::kDelay:
      return "delay";
  }
  return "unknown";
}

std::vector<TransportFaultRule> parseTransportFaultSpec(
    const std::string& spec) {
  auto rules = faultspec::parse<TransportFaultSite, TransportFaultKind>(
      spec, "transport fault", siteFromName, kindFromName);
  // Kind/site compatibility: a nonsense combination in a chaos schedule
  // should fail loudly, not silently no-op.
  for (const TransportFaultRule& rule : rules) {
    const bool sendOnly = rule.kind == TransportFaultKind::kPartial ||
                          rule.kind == TransportFaultKind::kDelay;
    const bool recvOnly = rule.kind == TransportFaultKind::kShort;
    if ((sendOnly && rule.site != TransportFaultSite::kSend) ||
        (recvOnly && rule.site != TransportFaultSite::kReceive)) {
      throw ConfigError("transport fault kind '" +
                        transportFaultKindName(rule.kind) +
                        "' does not apply at '" +
                        transportFaultSiteName(rule.site) + "'");
    }
  }
  return rules;
}

FaultInjectingTransport::FaultInjectingTransport(
    std::unique_ptr<Transport> inner, std::vector<TransportFaultRule> rules,
    std::uint64_t seed)
    : inner_(std::move(inner)), rules_(std::move(rules)), seed_(seed) {
  if (!inner_) {
    throw ConfigError("FaultInjectingTransport requires an inner transport");
  }
}

std::uint64_t FaultInjectingTransport::callCount(
    TransportFaultSite site) const {
  return calls_[siteIndex(site)];
}

std::uint64_t FaultInjectingTransport::injectedCount(
    TransportFaultSite site) const {
  return injected_[siteIndex(site)];
}

std::uint64_t FaultInjectingTransport::totalInjected() const {
  std::uint64_t total = 0;
  for (const TransportFaultSite site : kAllTransportFaultSites) {
    total += injected_[siteIndex(site)];
  }
  return total;
}

std::optional<TransportFaultKind> FaultInjectingTransport::nextFault(
    TransportFaultSite site) {
  const std::uint64_t call = ++calls_[siteIndex(site)];
  for (const TransportFaultRule& rule : rules_) {
    if (rule.site == site && rule.covers(call)) {
      ++injected_[siteIndex(site)];
      return rule.kind;
    }
  }
  return std::nullopt;
}

bool FaultInjectingTransport::connect() {
  const auto fault = nextFault(TransportFaultSite::kConnect);
  if (fault) {
    // All connect faults observable to the client are the same: the
    // connection does not come up (kTimeout models the hung variant —
    // same outcome, after the client's configured timeout budget).
    return false;
  }
  return inner_->connect();
}

bool FaultInjectingTransport::connected() const { return inner_->connected(); }

bool FaultInjectingTransport::send(const std::string& bytes) {
  const auto fault = nextFault(TransportFaultSite::kSend);
  if (!fault) {
    if (!delayed_.empty()) {
      // A previously delayed payload finally reaches the wire, in order,
      // ahead of this send's bytes.
      const bool ok = inner_->send(delayed_ + bytes);
      delayed_.clear();
      return ok;
    }
    return inner_->send(bytes);
  }
  switch (*fault) {
    case TransportFaultKind::kFail:
    case TransportFaultKind::kTimeout:
      return false;
    case TransportFaultKind::kDisconnect:
      inner_->close();
      return false;
    case TransportFaultKind::kPartial: {
      // The daemon sees a torn frame: half the bytes arrive, then the
      // connection dies.  Its FrameReader must hold the prefix without
      // decoding garbage, and the close must drop the partial state.
      inner_->send(bytes.substr(0, bytes.size() / 2));
      inner_->close();
      return false;
    }
    case TransportFaultKind::kDelay:
      // The bytes are not lost, just late: the send "succeeds" from the
      // caller's view and the payload rides in front of the next send.
      delayed_ += bytes;
      return true;
    case TransportFaultKind::kShort:
      return false;  // parse guards against short@send; defensive
  }
  return false;
}

bool FaultInjectingTransport::receive(std::string& out) {
  const auto fault = nextFault(TransportFaultSite::kReceive);
  if (!fault) {
    if (!holdback_.empty()) {
      out += holdback_;
      holdback_.clear();
    }
    return inner_->receive(out);
  }
  switch (*fault) {
    case TransportFaultKind::kShort: {
      // Deliver half of what is available; the remainder waits for the
      // next receive — a fragmented read the FrameReader must reassemble.
      std::string chunk;
      const bool ok = inner_->receive(chunk);
      chunk = holdback_ + chunk;
      holdback_.clear();
      const std::size_t half = chunk.size() / 2;
      out += chunk.substr(0, half);
      holdback_ = chunk.substr(half);
      return ok;
    }
    case TransportFaultKind::kFail:
    case TransportFaultKind::kTimeout:
      return true;  // nothing arrives this call; connection stays up
    case TransportFaultKind::kDisconnect:
      inner_->close();
      return false;
    case TransportFaultKind::kPartial:
    case TransportFaultKind::kDelay:
      return true;  // parse guards against these at recv; defensive
  }
  return true;
}

void FaultInjectingTransport::close() {
  delayed_.clear();
  holdback_.clear();
  inner_->close();
}

std::unique_ptr<Transport> wrapTransportFaultsFromEnv(
    std::unique_ptr<Transport> inner) {
  const std::string spec = env::getString("ZS_AGG_FAULT_SPEC", "");
  if (spec.empty()) {
    return inner;
  }
  const auto seed =
      static_cast<std::uint64_t>(env::getInt("ZS_AGG_FAULT_SEED", 1));
  return std::make_unique<FaultInjectingTransport>(
      std::move(inner), parseTransportFaultSpec(spec), seed);
}

}  // namespace zerosum::aggregator
