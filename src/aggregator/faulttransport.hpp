// FaultInjectingTransport: a Transport decorator that injects
// deterministic, seeded faults at the client->daemon byte-pipe edge —
// the transport-layer sibling of procfs::FaultInjectingProcFs.
//
// The aggregation client must survive everything a network can do to
// it: a daemon that dies mid-stream, a link that flaps, a send that
// delivers half a frame before the peer vanishes, a connect that hangs
// until a timeout.  This decorator manufactures those failures on a
// reproducible schedule so the degradation/backpressure machinery can
// be chaos-tested end to end (and exercised in live runs via
// ZS_AGG_FAULT_SPEC — a separate variable from ZS_FAULT_SPEC, whose
// site names belong to procfs).
//
// A schedule is a list of rules; each names a call site, a fault kind,
// and a window of 1-based call indices at that site, in the grammar
// procfs::parseFaultSpec shares (common/faultspec.hpp):
//   send:disconnect@5        one-shot: the 5th send fails and closes
//   connect:fail@1..3        windowed: the first three connects fail
//   recv:short@4..           sticky: every receive from the 4th on is split
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aggregator/transport.hpp"
#include "common/faultspec.hpp"

namespace zerosum::aggregator {

/// The observable call sites of a Transport.
enum class TransportFaultSite {
  kConnect,  // connect()   "connect"
  kSend,     // send()      "send"
  kReceive,  // receive()   "recv"
};

inline constexpr TransportFaultSite kAllTransportFaultSites[] = {
    TransportFaultSite::kConnect,
    TransportFaultSite::kSend,
    TransportFaultSite::kReceive,
};

enum class TransportFaultKind {
  kFail,        // "fail": the call reports failure; connection unchanged
  kDisconnect,  // "disconnect": the call fails and the connection closes
  kTimeout,     // "timeout": connect/send behaves like a hung peer that
                //            timed out (fails without closing the inner
                //            transport's listener-side state)
  kPartial,     // "partial": send delivers the first half of the bytes,
                //            then the connection closes (a torn frame on
                //            the daemon's side)
  kShort,       // "short": receive returns only half the available bytes
                //          now; the rest arrives on the next call
  kDelay,       // "delay": send buffers the bytes; they are delivered in
                //          front of a later send's bytes
};

[[nodiscard]] std::string transportFaultSiteName(TransportFaultSite site);
[[nodiscard]] std::string transportFaultKindName(TransportFaultKind kind);

using TransportFaultRule =
    faultspec::Rule<TransportFaultSite, TransportFaultKind>;

/// Parses a ZS_AGG_FAULT_SPEC-style string ("site:kind@N",
/// "site:kind@N..M", "site:kind@N.." joined by commas).  Names are
/// case-insensitive.  Throws ConfigError on any malformed element, or on
/// a kind that does not apply at its site.
[[nodiscard]] std::vector<TransportFaultRule> parseTransportFaultSpec(
    const std::string& spec);

class FaultInjectingTransport final : public Transport {
 public:
  /// Wraps `inner`; `seed` keeps any randomized behavior reproducible.
  explicit FaultInjectingTransport(std::unique_ptr<Transport> inner,
                                   std::vector<TransportFaultRule> rules = {},
                                   std::uint64_t seed = 1);

  /// Calls observed at `site` so far (faulted or not).
  [[nodiscard]] std::uint64_t callCount(TransportFaultSite site) const;
  /// Faults actually injected at `site` so far.
  [[nodiscard]] std::uint64_t injectedCount(TransportFaultSite site) const;
  [[nodiscard]] std::uint64_t totalInjected() const;

  // --- Transport -----------------------------------------------------------
  bool connect() override;
  [[nodiscard]] bool connected() const override;
  bool send(const std::string& bytes) override;
  bool receive(std::string& out) override;
  void close() override;

 private:
  [[nodiscard]] std::optional<TransportFaultKind> nextFault(
      TransportFaultSite site);

  std::unique_ptr<Transport> inner_;
  std::vector<TransportFaultRule> rules_;
  std::uint64_t seed_;
  std::uint64_t calls_[std::size(kAllTransportFaultSites)] = {};
  std::uint64_t injected_[std::size(kAllTransportFaultSites)] = {};
  /// kDelay: bytes withheld from the wire until the next clean send.
  std::string delayed_;
  /// kShort: bytes withheld from the caller until the next receive.
  std::string holdback_;
};

/// Wraps `inner` with faults from ZS_AGG_FAULT_SPEC / ZS_AGG_FAULT_SEED;
/// returns `inner` unchanged when the spec is unset or empty.  Throws
/// ConfigError on a malformed spec.
[[nodiscard]] std::unique_ptr<Transport> wrapTransportFaultsFromEnv(
    std::unique_ptr<Transport> inner);

}  // namespace zerosum::aggregator
