#include "common/faultspec.hpp"

#include <algorithm>
#include <cctype>

#include "common/strings.hpp"

namespace zerosum::faultspec {

namespace {

std::string toLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

}  // namespace

std::vector<Element> elements(const std::string& spec,
                              const std::string& grammar) {
  std::vector<Element> out;
  for (const std::string& raw : strings::split(spec, ',')) {
    Element element;
    element.text = strings::trim(raw);
    const std::string& text = element.text;
    if (text.empty()) {
      continue;
    }
    const auto colon = text.find(':');
    const auto at = text.find('@');
    if (colon == std::string::npos || at == std::string::npos || at < colon) {
      throw ConfigError(grammar + " spec element '" + text +
                        "' is not site:kind@schedule");
    }
    element.site = toLower(text.substr(0, colon));
    element.kind = toLower(text.substr(colon + 1, at - colon - 1));

    const std::string schedule = text.substr(at + 1);
    const auto dots = schedule.find("..");
    const auto first = strings::toU64(schedule.substr(0, dots));
    if (!first || *first == 0) {
      throw ConfigError("bad " + grammar + " call index '" + schedule +
                        "' in '" + text + "'");
    }
    element.firstCall = *first;
    element.lastCall = *first;
    if (dots != std::string::npos) {
      const std::string rest = schedule.substr(dots + 2);
      element.lastCall = std::nullopt;  // sticky
      if (!rest.empty()) {
        const auto last = strings::toU64(rest);
        if (!last || *last < *first) {
          throw ConfigError("bad " + grammar + " window end in '" + text +
                            "'");
        }
        element.lastCall = *last;
      }
    }
    out.push_back(std::move(element));
  }
  return out;
}

}  // namespace zerosum::faultspec
