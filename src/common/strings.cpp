#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace zerosum::strings {

namespace {
bool isSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}
}  // namespace

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> splitWs(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && isSpace(s[i])) {
      ++i;
    }
    const std::size_t start = i;
    while (i < s.size() && !isSpace(s[i])) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

std::string trim(std::string_view s) { return std::string(trimView(s)); }

std::string_view trimView(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && isSpace(s[b])) {
    ++b;
  }
  while (e > b && isSpace(s[e - 1])) {
    --e;
  }
  return s.substr(b, e - b);
}

bool nextLine(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) {
    return false;
  }
  const std::size_t pos = rest.find('\n');
  if (pos == std::string_view::npos) {
    line = rest;
    rest = {};
  } else {
    line = rest.substr(0, pos);
    rest.remove_prefix(pos + 1);
  }
  return true;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::optional<std::uint64_t> toU64(std::string_view s) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty()) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::int64_t> toI64(std::string_view s) {
  std::int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty()) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> toDouble(std::string_view s) {
  // std::from_chars for double exists in GCC 12; keep strictness identical
  // to the integer parsers.
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty()) {
    return std::nullopt;
  }
  return value;
}

std::string fixed(double v, int precision) {
  std::string out;
  appendFixed(out, v, precision);
  return out;
}

void appendFixed(std::string& out, double v, int precision) {
  if (precision < 0) {
    precision = 6;
  }
  // std::to_chars with a precision prints exactly as printf does in the
  // "C" locale.  Short values format on the stack; a longer one goes
  // straight into `out`, sized for a sign, DBL_MAX's 309 integer digits,
  // the point and the fraction.
  char buf[64];
  const auto small = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::fixed, precision);
  if (small.ec == std::errc{}) {
    out.append(buf, small.ptr);
    return;
  }
  const std::size_t at = out.size();
  out.resize(at + 311 + static_cast<std::size_t>(precision));
  const auto large = std::to_chars(out.data() + at, out.data() + out.size(), v,
                                   std::chars_format::fixed, precision);
  out.resize(static_cast<std::size_t>(large.ptr - out.data()));
}

std::string zeroPad(std::uint64_t v, int width) {
  std::string digits = std::to_string(v);
  if (digits.size() >= static_cast<std::size_t>(width)) {
    return digits;
  }
  return std::string(static_cast<std::size_t>(width) - digits.size(), '0') +
         digits;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string padRight(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) {
    out.append(width - out.size(), ' ');
  }
  return out;
}

std::string padLeft(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) {
    out.insert(out.begin(), static_cast<std::ptrdiff_t>(width - out.size()),
               ' ');
  }
  return out;
}

}  // namespace zerosum::strings
