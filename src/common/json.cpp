#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/error.hpp"

namespace zerosum::json {

namespace {

/// Appends `s` double-quoted, escaped per JSON string rules: runs that
/// need no escape are appended whole.
void appendQuoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4U],
                               kHex[c & 0xFU]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

template <typename Int>
void appendInteger(std::string& out, Int v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 24 bytes hold every 64-bit integer
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

}  // namespace

// --- Writer ----------------------------------------------------------------

Writer::~Writer() {
  if (stream_ != nullptr && !own_.empty()) {
    try {
      handOver();
    } catch (...) {
      // Only a stream set to throw throws, and its state already holds
      // the failure (setstate records badbit before it throws), so its
      // owner still sees it; the exception must not leave a destructor.
    }
  }
}

void Writer::handOver() {
  stream_->write(own_.data(), static_cast<std::streamsize>(own_.size()));
  own_.clear();
}

void Writer::beforeValue() {
  if (stack_.empty()) {
    return;  // top-level document value
  }
  Level& level = stack_.back();
  if (level.frame == Frame::kObject) {
    if (!keyPending_) {
      throw StateError("json: value inside an object requires a key");
    }
    keyPending_ = false;
    return;
  }
  if (!level.empty) {
    out_.push_back(',');
  }
  level.empty = false;
}

void Writer::open(Frame frame, char bracket) {
  beforeValue();
  out_.push_back(bracket);
  stack_.push_back({frame, true});
}

Writer& Writer::beginObject() {
  open(Frame::kObject, '{');
  return emitted();
}

Writer& Writer::endObject() {
  if (stack_.empty() || stack_.back().frame != Frame::kObject ||
      keyPending_) {
    throw StateError("json: endObject without matching beginObject");
  }
  out_.push_back('}');
  stack_.pop_back();
  return emitted();
}

Writer& Writer::beginArray() {
  open(Frame::kArray, '[');
  return emitted();
}

Writer& Writer::endArray() {
  if (stack_.empty() || stack_.back().frame != Frame::kArray) {
    throw StateError("json: endArray without matching beginArray");
  }
  out_.push_back(']');
  stack_.pop_back();
  return emitted();
}

Writer& Writer::key(std::string_view k) {
  if (stack_.empty() || stack_.back().frame != Frame::kObject ||
      keyPending_) {
    throw StateError("json: key() outside an object");
  }
  Level& level = stack_.back();
  if (!level.empty) {
    out_.push_back(',');
  }
  level.empty = false;
  appendQuoted(out_, k);
  out_.push_back(':');
  keyPending_ = true;
  return emitted();
}

Writer& Writer::value(std::string_view v) {
  beforeValue();
  appendQuoted(out_, v);
  return emitted();
}

Writer& Writer::value(double v) {
  beforeValue();
  // Integral values in (-1e6, 1e6) print their integer digits, which is
  // exactly what to_chars(general) prints for them (see the header).
  if (v > -1e6 && v < 1e6) {
    const auto whole = static_cast<std::int32_t>(v);
    if (static_cast<double>(whole) == v && (whole != 0 || !std::signbit(v))) {
      appendInteger(out_, whole);
      return emitted();
    }
  }
  if (!std::isfinite(v)) {
    // JSON has no Infinity/NaN; null is the conventional substitute.
    out_.append("null");
    return emitted();
  }
  // Shortest round-trip form (Ryū via to_chars): the fewest digits that
  // parse back to exactly `v`, so persisted rollups survive a
  // write→parse cycle bit-for-bit and never carry padding digits.
  char buf[32];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general);
  if (ec != std::errc{}) {
    throw StateError("json: cannot format number");
  }
  out_.append(buf, static_cast<std::size_t>(ptr - buf));
  return emitted();
}

Writer& Writer::value(std::int64_t v) {
  beforeValue();
  appendInteger(out_, v);
  return emitted();
}

Writer& Writer::value(std::uint64_t v) {
  beforeValue();
  appendInteger(out_, v);
  return emitted();
}

Writer& Writer::value(bool v) {
  beforeValue();
  out_.append(v ? "true" : "false");
  return emitted();
}

Writer& Writer::null() {
  beforeValue();
  out_.append("null");
  return emitted();
}

// --- Value -----------------------------------------------------------------

bool Value::asBool() const {
  if (kind_ != Kind::kBool) {
    throw ParseError("json: value is not a bool");
  }
  return bool_;
}

double Value::asNumber() const {
  if (kind_ != Kind::kNumber) {
    throw ParseError("json: value is not a number");
  }
  return number_;
}

const std::string& Value::asString() const {
  if (kind_ != Kind::kString) {
    throw ParseError("json: value is not a string");
  }
  return string_;
}

const Value::Array& Value::asArray() const {
  if (kind_ != Kind::kArray) {
    throw ParseError("json: value is not an array");
  }
  return *array_;
}

const Value::Object& Value::asObject() const {
  if (kind_ != Kind::kObject) {
    throw ParseError("json: value is not an object");
  }
  return *object_;
}

const Value* Value::find(const std::string& name) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  const auto it = object_->find(name);
  return it == object_->end() ? nullptr : &it->second;
}

double Value::numberOr(const std::string& name, double fallback) const {
  const Value* v = find(name);
  return (v != nullptr && v->kind() == Kind::kNumber) ? v->asNumber()
                                                      : fallback;
}

std::string Value::stringOr(const std::string& name,
                            const std::string& fallback) const {
  const Value* v = find(name);
  return (v != nullptr && v->kind() == Kind::kString) ? v->asString()
                                                      : fallback;
}

// --- parse -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parseDocument() {
    Value v = parseValue();
    skipWs();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return v;
  }

 private:
  /// Container nesting bound: the recursive descent otherwise turns
  /// attacker-sized documents (the aggregation query path parses bytes
  /// straight off a socket) into stack exhaustion.  64 is far beyond
  /// anything this repository emits.
  static constexpr int kMaxDepth = 64;

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxDepth) {
        parser.fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
    }
    ~DepthGuard() { --parser.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& parser;
  };

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("json at offset " + std::to_string(pos_) + ": " + why);
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consumeLiteral(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value parseValue() {
    skipWs();
    const char c = peek();
    switch (c) {
      case '{': {
        DepthGuard guard(*this);
        return parseObject();
      }
      case '[': {
        DepthGuard guard(*this);
        return parseArray();
      }
      case '"': return Value(parseString());
      case 't':
        if (consumeLiteral("true")) {
          return Value(true);
        }
        fail("bad literal");
      case 'f':
        if (consumeLiteral("false")) {
          return Value(false);
        }
        fail("bad literal");
      case 'n':
        if (consumeLiteral("null")) {
          return Value();
        }
        fail("bad literal");
      default: return parseNumber();
    }
  }

  Value parseObject() {
    expect('{');
    Value::Object members;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    while (true) {
      skipWs();
      std::string name = parseString();
      skipWs();
      expect(':');
      members.insert_or_assign(std::move(name), parseValue());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(members));
    }
  }

  Value parseArray() {
    expect('[');
    Value::Array items;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      items.push_back(parseValue());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(items));
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // We only ever emit \u00xx (control characters); decode the low
          // byte and ignore the (never-emitted) high planes.
          out.push_back(static_cast<char>(code & 0xFFU));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc{} || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("bad number");
    }
    return Value(out);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parseDocument(); }

}  // namespace zerosum::json
