// Immutable text shared between holders instead of copied.
//
// The read plane's result cache keeps each answer once; a cache hit hands
// the same bytes to the response, which copies them a single time into
// the transport's buffer.  SharedText reads like a const std::string, so
// the callers that inspect an answer keep their string idioms.
#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace zerosum {

class SharedText {
 public:
  SharedText() = default;
  // Implicit, as from a string: every body a handler builds becomes one.
  SharedText(std::string text)  // NOLINT(google-explicit-constructor)
      : text_(std::make_shared<const std::string>(std::move(text))) {}
  SharedText(const char* text)  // NOLINT(google-explicit-constructor)
      : SharedText(std::string(text)) {}

  [[nodiscard]] const std::string& str() const {
    static const std::string kEmpty;
    return text_ ? *text_ : kEmpty;
  }
  operator const std::string&() const {  // NOLINT(google-explicit-constructor)
    return str();
  }

  [[nodiscard]] std::size_t size() const { return str().size(); }
  [[nodiscard]] bool empty() const { return str().empty(); }
  [[nodiscard]] std::size_t find(std::string_view needle,
                                 std::size_t from = 0) const {
    return str().find(needle, from);
  }

  friend bool operator==(const SharedText& a, const SharedText& b) {
    return a.str() == b.str();
  }
  friend std::ostream& operator<<(std::ostream& out, const SharedText& text) {
    return out << text.str();
  }

 private:
  std::shared_ptr<const std::string> text_;
};

}  // namespace zerosum
