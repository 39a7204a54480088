// The fault-schedule grammar of the procfs and transport fault injectors
// (ZS_FAULT_SPEC, ZS_AGG_FAULT_SPEC): a comma-separated list of
// `site:kind@schedule` elements, the schedule naming 1-based call indices
// at the site:
//   N       one-shot: only the Nth call
//   N..M    windowed: calls N through M
//   N..     sticky: every call from the Nth on
// Names are case-insensitive, and each grammar brings its own site and
// kind lookups.  Any malformed element throws ConfigError: a typo in a
// fault schedule must not silently disable the schedule.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace zerosum::faultspec {

/// One rule: the calls at `site` that get fault `kind`.
template <typename Site, typename Kind>
struct Rule {
  Site site{};
  Kind kind{};
  /// 1-based call index at `site` where the fault first fires.
  std::uint64_t firstCall = 1;
  /// Last call covered; nullopt = sticky (never stops).  Defaults to
  /// firstCall, i.e. a one-shot fault.
  std::optional<std::uint64_t> lastCall = 1;

  [[nodiscard]] bool covers(std::uint64_t call) const {
    return call >= firstCall && (!lastCall || call <= *lastCall);
  }
};

/// One element with its names lowercased and its schedule parsed.
struct Element {
  std::string text;  ///< the element as written, for error messages
  std::string site;
  std::string kind;
  std::uint64_t firstCall = 1;
  std::optional<std::uint64_t> lastCall = 1;
};

/// The non-empty elements of `spec`; `grammar` ("fault", "transport
/// fault") opens every error message.
[[nodiscard]] std::vector<Element> elements(const std::string& spec,
                                            const std::string& grammar);

/// Parses `spec` into rules.  `siteOf` and `kindOf` map a lowercase name
/// to the grammar's enumerator, or to nullopt when it names none.
template <typename Site, typename Kind, typename SiteOf, typename KindOf>
[[nodiscard]] std::vector<Rule<Site, Kind>> parse(const std::string& spec,
                                                  const std::string& grammar,
                                                  SiteOf siteOf,
                                                  KindOf kindOf) {
  std::vector<Rule<Site, Kind>> rules;
  for (const Element& element : elements(spec, grammar)) {
    const std::optional<Site> site = siteOf(element.site);
    if (!site) {
      throw ConfigError("unknown " + grammar + " site '" + element.site +
                        "' in '" + element.text + "'");
    }
    const std::optional<Kind> kind = kindOf(element.kind);
    if (!kind) {
      throw ConfigError("unknown " + grammar + " kind '" + element.kind +
                        "' in '" + element.text + "'");
    }
    rules.push_back({*site, *kind, element.firstCall, element.lastCall});
  }
  return rules;
}

}  // namespace zerosum::faultspec
