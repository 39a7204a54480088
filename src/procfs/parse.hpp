// Parsers for the kernel text formats.  Both providers (the live /proc and
// the simulator's rendered files) funnel through these functions, so the
// parsing logic is exercised by every simulated experiment as well as by
// real-process monitoring.
//
// Each format has two entry points: the classic value-returning parser,
// and a zero-allocation `*Into` variant that tokenizes the text as
// string_views and reuses the capacity of the caller's output struct.
// The monitor's steady-state sampling loop uses the `*Into` family
// exclusively (see DESIGN.md, "Zero-allocation sampling hot path").
#pragma once

#include <string>
#include <string_view>

#include "procfs/types.hpp"

namespace zerosum::procfs {

/// Parses /proc/<pid>/status-format text.  Unknown keys are ignored (the
/// real file has dozens of fields we do not use).  Throws ParseError when a
/// known key has a malformed value.
ProcStatus parseStatus(const std::string& text);
/// Zero-allocation variant: resets and fills `out`, reusing its string
/// capacity.  Allocates only on first growth or on the error path.
void parseStatusInto(std::string_view text, ProcStatus& out);

/// Parses a /proc/<pid>/task/<tid>/stat line.  The comm field is delimited
/// by parentheses and may itself contain spaces and ')' — parsing anchors
/// on the *last* closing parenthesis, as the kernel documentation requires.
TaskStat parseTaskStat(const std::string& text);
void parseTaskStatInto(std::string_view text, TaskStat& out);

MemInfo parseMeminfo(const std::string& text);
void parseMeminfoInto(std::string_view text, MemInfo& out);

/// Parses "/proc/loadavg" ("0.52 0.58 0.59 2/1345 12345").
LoadAvg parseLoadavg(const std::string& text);
void parseLoadavgInto(std::string_view text, LoadAvg& out);

StatSnapshot parseStat(const std::string& text);
/// Reuses `out.perCpu` nodes: on an unchanged CPU topology (the steady
/// state) no map node is allocated or freed; CPUs that disappear from the
/// text are erased, so the result equals a fresh parseStat().  A CPU
/// label past INT_MAX is a ParseError.
void parseStatInto(std::string_view text, StatSnapshot& out);

}  // namespace zerosum::procfs
