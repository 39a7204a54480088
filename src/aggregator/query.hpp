// Queries: the one request dialect of every entry point that reads the
// daemon's data, its one parser, and one body per op.
//
// A request is a JSON object, or on the read plane the same fields as GET
// parameters (`op` from the path's `op=`).  Every answer is a JSON
// document ending in a newline; a malformed request, or an op the entry
// point does not answer, gets {"error": "..."} instead.  The JSON arrives
// off the wire, so the parse is depth-limited and never throws.
//
// Fields:
//   "job", "rank"  filter the series (any when absent); a range reads
//                  the series of job "" and rank 0 unless given.  A rank
//                  that is not a number within int is an error.
//   "metric"       names one metric: a filter for snapshot and export,
//                  required by range and window
//   "t0", "t1"     the bounds of range and export (0 and 1e18 when
//                  absent; NaN is an error, an infinite bound selects
//                  everything on its side)
//   "resolution"   "fine" (the default) or "coarse"; anything else is an
//                  error
//   "window_s"     the span window folds (> 0, default 60)
//
// The ops, and the entry points that answer each (W: wire, H: read plane,
// O: offline; see below):
//
//   op         answer                                             W  H  O
//   sources    every known source: identity and counts; the wire  W     O
//              adds its live state and health
//   series     every series key                                      H
//   snapshot   the newest fine and coarse window of each          W  H  O
//              matching series
//   range      one series' windows intersecting [t0, t1]          W  H  O
//   window     per matching series, the fold of the metric's         H
//              trailing window_s seconds (DESIGN.md §12)
//   export     every matching series' windows in [t0, t1]            H
//   stats      the read plane's counters; offline, the engine's      H  O
//   dashboard  the rendered allocation dashboard as {"text": ...}  W
//   catalog    the hosted catalog's live entries (catalog hosts     W
//              only; the federation discovery lookup, catalog.hpp)
//
// W  the wire: kQuery frames, Aggregator::query, `zerosum-post
//    --agg-query`, and POST /query on an HTTP plane mounted without a
//    QueryService.  runQuery(const Aggregator&, ...) reads the tsdb
//    engine when one is attached, else a StoreSnapshot of only what the
//    op reads: each matching series' newest windows for snapshot, one
//    series' windows in [t0, t1] for range.
// H  the read plane: GET /api/query and POST /query of `zerosum-aggd
//    --http-port` (QueryService: cached, admission-controlled, read from
//    its shared StoreSnapshot; export reads the engine when one is
//    attached).
// O  offline: `zerosum-post --tsdb-query` over a tsdb data dir,
//    runQuery(const tsdb::Engine&, ...).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "aggregator/store.hpp"

namespace zerosum::tsdb {
class Engine;
}

namespace zerosum::aggregator {

class Aggregator;
class Transport;

/// The ops each entry point answers: the W, H and O columns above.
inline constexpr std::string_view kWireOps[] = {"sources", "snapshot", "range",
                                                "dashboard", "catalog"};
inline constexpr std::string_view kReadPlaneOps[] = {
    "series", "snapshot", "range", "window", "export", "stats"};
inline constexpr std::string_view kOfflineOps[] = {"sources", "snapshot",
                                                   "range", "stats"};

/// A request parsed and validated: every field made explicit, defaults
/// applied.
struct QueryRequest {
  std::string op;
  std::string error;  ///< non-empty: the request is malformed
  std::optional<std::string> job;
  std::optional<int> rank;
  std::string metric;  ///< empty: any metric
  double t0 = 0.0;
  double t1 = 1e18;
  Resolution resolution = Resolution::kFine;
  double windowSeconds = 60.0;  ///< `window` op

  /// The series a `range` reads, its names resolved by names::find(): a
  /// name never interned names no series.
  [[nodiscard]] SeriesKey rangeKey() const {
    return {names::find(job.value_or("")), rank.value_or(0),
            names::find(metric)};
  }
};

/// Parses one JSON request for an entry point that answers `ops`.  A
/// syntax or type error is reported first, then an op outside `ops`, then
/// the op's own requirements.  Never throws.
[[nodiscard]] QueryRequest parseQuery(const std::string& requestJson,
                                      std::span<const std::string_view> ops);

/// The same for the GET form: `op`, and the other fields as decoded
/// query-string parameters.
[[nodiscard]] QueryRequest parseQuery(
    const std::string& op, const std::map<std::string, std::string>& params,
    std::span<const std::string_view> ops);

/// Runs one read of a view.  The read plane passes
/// Aggregator::readEngine, so a threaded writer waits for one read, not
/// for a whole export.
using ReadGuard = std::function<void(const std::function<void()>&)>;

/// {"error": message}: every entry point's error answer.
[[nodiscard]] std::string errorBody(const std::string& message);

// --- op bodies: each writes one op's whole answer ---------------------------

[[nodiscard]] std::string seriesBody(const ReadView& view);
[[nodiscard]] std::string snapshotBody(const ReadView& view,
                                       const QueryRequest& request);
[[nodiscard]] std::string rangeBody(const ReadView& view,
                                    const QueryRequest& request);
/// Folds fine windows while window_s fits within `fineSpanSeconds` (the
/// span fine retention covers), coarse windows beyond; adds the number
/// of series folded to `folded`.
[[nodiscard]] std::string windowBody(const ReadView& view,
                                     const QueryRequest& request,
                                     double fineSpanSeconds,
                                     std::uint64_t& folded);
/// `source` names the view in the answer; every read of it runs through
/// `guard`: the key list once, then each series' windows.
[[nodiscard]] std::string exportBody(const ReadView& view,
                                     const QueryRequest& request,
                                     const char* source,
                                     const ReadGuard& guard);

// --- entry points -----------------------------------------------------------

/// The wire: one JSON request against the daemon.  Never throws.
std::string runQuery(const Aggregator& daemon, const std::string& requestJson);

/// Offline: one JSON request against a recovered engine.  Never throws.
std::string runQuery(const tsdb::Engine& engine,
                     const std::string& requestJson);

/// Client-side helper: connects `transport`, sends one kQuery frame, and
/// drains until the kResponse arrives.  `idle()` runs between receive
/// attempts — a short sleep against a TCP daemon, an Aggregator::poll
/// against the in-memory pipe.  nullopt when the daemon is unreachable,
/// the connection drops, or `maxIdles` rounds pass without a response.
std::optional<std::string> requestOverTransport(
    Transport& transport, const std::string& requestJson,
    const std::function<void()>& idle, int maxIdles = 200);

}  // namespace zerosum::aggregator
