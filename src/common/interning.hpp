// Process-global metric-name interning (the sampling hot path's answer to
// repeated string building and hashing).
//
// Every metric name the monitor publishes ("lwp.51334.utime_delta",
// "hwt.1.idle_pct", "rank.0") is interned exactly once into a small dense
// integer Id.  The hot path then carries Ids: exporter::Record holds two
// Ids instead of two std::strings, the aggregation client queues Ids, and
// the tsdb ingest path keys its series caches by Id.  Names are resolved
// back to text only at the edges (wire encode, CSV write, tool feeds),
// so steady-state sampling performs no heap allocation and no repeated
// string hashing.
//
// Concurrency contract, matching the trace ring's design philosophy:
//   * intern() takes a mutex, but only the *first* sight of a name does
//     real work — callers cache the returned Id, so the lock is off the
//     steady-state path entirely.
//   * lookup() is wait-free: entries live in fixed-size chunks that are
//     never moved or freed, published through an acquire/release size
//     counter, so any thread may resolve an Id without synchronizing
//     with concurrent intern() calls.
//
// Ids are process-local and dense from 1 (0 is kInvalidId); they are
// never persisted or sent on the wire — the wire/CSV formats still carry
// names, so interning is invisible to readers (see DESIGN.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace zerosum::names {

using Id = std::uint32_t;

/// Id 0 is reserved; lookup(kInvalidId) returns "".
inline constexpr Id kInvalidId = 0;

/// Returns the Id for `name`, interning it on first sight.  Identical
/// strings always yield the same Id for the life of the process.
Id intern(std::string_view name);

/// Resolves an Id to its name.  Wait-free; an Id never handed out by
/// intern() (including kInvalidId) resolves to "".  The returned view
/// points into storage that lives until process exit.
std::string_view lookup(Id id);

/// Convenience: lookup() materialized as a std::string (edges only).
std::string lookupString(Id id);

/// Number of distinct names interned so far (diagnostics / tests).
std::size_t internedCount();

}  // namespace zerosum::names
