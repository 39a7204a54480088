// Small string helpers used by the /proc parsers, CSV reader/writer, and
// report formatters.  All functions are pure and allocation-conscious.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace zerosum::strings {

/// Splits on a single character; adjacent separators yield empty tokens.
/// split("a,,b", ',') == {"a", "", "b"}.  An empty input yields {""}.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of whitespace; never yields empty tokens.
std::vector<std::string> splitWs(std::string_view s);

/// Removes leading/trailing whitespace (space, tab, CR, LF).
std::string trim(std::string_view s);

/// trim() without the copy: a view into the input.  The zero-allocation
/// parsers use this; callers must keep the underlying buffer alive.
std::string_view trimView(std::string_view s);

/// Zero-allocation replacement for splitWs(): walks whitespace-separated
/// tokens as views into the input.
///
///   TokenCursor cur(line);
///   std::string_view tok;
///   while (cur.next(tok)) { ... }
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view s) : s_(s) {}

  /// Advances to the next non-empty token; false at end of input.
  bool next(std::string_view& token) {
    while (pos_ < s_.size() && isWs(s_[pos_])) {
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() && !isWs(s_[pos_])) {
      ++pos_;
    }
    token = s_.substr(start, pos_ - start);
    return true;
  }

 private:
  static bool isWs(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  }
  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Zero-allocation line iteration: extracts the next '\n'-terminated line
/// (without the terminator) from `rest`, shrinking it.  False when `rest`
/// is exhausted.
bool nextLine(std::string_view& rest, std::string_view& line);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/// Strict unsigned/signed/double parsers.  Return nullopt on any trailing
/// garbage instead of best-effort prefixes, so /proc format drift is caught.
std::optional<std::uint64_t> toU64(std::string_view s);
std::optional<std::int64_t> toI64(std::string_view s);
std::optional<double> toDouble(std::string_view s);

/// printf-style %.2f / %.6f rendering without locale surprises.
std::string fixed(double v, int precision);

/// Appends what snprintf("%.*f", precision, v) prints, for every double
/// (NaN, infinities and DBL_MAX's 309 integer digits included).  A
/// negative precision means 6, as in printf.  fixed() and the CSV writer
/// both format through this.
void appendFixed(std::string& out, double v, int precision);

/// Left-pads with '0' to `width` digits: zeroPad(7, 3) == "007".
std::string zeroPad(std::uint64_t v, int width);

/// Joins tokens with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Pads/truncates to an exact column width (right-pad with spaces).
std::string padRight(std::string_view s, std::size_t width);
std::string padLeft(std::string_view s, std::size_t width);

}  // namespace zerosum::strings
