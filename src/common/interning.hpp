// Process-global metric-name interning (the sampling hot path's answer to
// repeated string building and hashing).
//
// Every metric name the monitor publishes ("lwp.51334.utime_delta",
// "hwt.1.idle_pct", "rank.0") is interned exactly once into a small dense
// integer Id.  The hot path then carries Ids: exporter::Record holds two
// Ids instead of two std::strings, the aggregation client queues Ids, and
// the daemons and the tsdb engine key their series by Id.  Names are
// resolved back to text only at the edges (a name's first use on a
// connection, CSV and JSON writes, WAL and segment files, tool feeds),
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
// Ids are process-local and dense from 1 (0 is kInvalidId).  They key
// every in-memory series (aggregator::SeriesKey) but are never
// persisted: the WAL, segment footers, CSV and JSON carry names.  The
// wire carries connection-scoped references instead (aggregator/wire.hpp):
// a name's text crosses a connection once, declared in the frame that
// first uses it, and the receiver interns it into its own ids.
//
// intern() never fails loudly: when the table is full it refuses a new
// name and returns kInvalidId, and every consumer drops (and counts) what
// such a name would have keyed.  find() resolves query text without
// interning it, so readers cannot grow the table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace zerosum::names {

using Id = std::uint32_t;

/// Id 0 is reserved; lookup(kInvalidId) returns "".
inline constexpr Id kInvalidId = 0;

/// The most names the table can hold.
inline constexpr std::size_t kMaxNames = std::size_t{1} << 22;  // 4M

/// Returns the Id for `name`, interning it on first sight.  Identical
/// strings always yield the same Id for the life of the process.
Id intern(std::string_view name);

/// The Id of `name` if it was ever interned, else kInvalidId; never
/// inserts.  Query text goes through here, not intern(), so a reader
/// asking for names that do not exist cannot grow the table.
Id find(std::string_view name);

/// Resolves an Id to its name.  Wait-free; an Id never handed out by
/// intern() (including kInvalidId) resolves to "".  The returned view
/// points into storage that lives until process exit.
std::string_view lookup(Id id);

/// Convenience: lookup() materialized as a std::string (edges only).
std::string lookupString(Id id);

/// Number of distinct names interned so far (diagnostics / tests).
std::size_t internedCount();

/// Sets how many names the table holds before intern() refuses new ones
/// (clamped to kMaxNames, the default; kMaxNames restores it).  Names
/// already interned keep their ids.  Lets a test reach the table-full
/// path without interning millions of names.
void setCapacity(std::size_t names);

}  // namespace zerosum::names
