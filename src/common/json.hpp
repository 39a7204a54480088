// Minimal JSON support: the query answer emitter and a strict reader.
//
// Two halves, both deliberately small:
//   * json::Writer — the emitter behind every query answer (the op bodies
//     in aggregator/query.cpp, the read plane's /api/stats and /healthz,
//     the catalog), and also the Chrome trace_event exporter, the metrics
//     JSON, the tsdb source registry and the bench result files.  It
//     formats into one std::string: a caller that owns the answer passes
//     its string and gets every byte appended there; a caller that holds
//     an std::ostream gets the same formatting into the writer's own
//     string, handed to the stream whenever a whole document is complete,
//     whenever that string passes 64 KiB, and at destruction.  So a
//     stream holds each finished document while the writer is still
//     alive, and a caller may write to the stream between documents.
//   * json::Value / json::parse — a strict recursive-descent reader for
//     the documents this repository itself emits (trace files, bench
//     results), so zerosum-post can summarize a trace without a external
//     JSON dependency.  Full RFC 8259 grammar minus \u surrogate pairs
//     (which we never emit; lone \uXXXX escapes are decoded as Latin-1).
//     Also fed untrusted bytes by the aggregation query service, hence
//     the hardening guarantees: container nesting is limited to 64
//     levels, duplicate object keys resolve to the last occurrence, and
//     any bytes after the document are an error.
//
// Numbers: integers print with std::to_chars.  A double prints as
// std::to_chars(general) does, the shortest digits that parse back to
// the same value in %g's layout with precision 6: plain digits while the
// decimal exponent is below 6, scientific from 1e6 on.  So a finite
// integral double in (-1e6, 1e6), other than -0, has exactly its integer
// digits as that form, and takes the integer formatter instead: the same
// bytes for less work (Json.NumbersMatchToCharsGeneral compares the two).
// Every other finite double goes through to_chars(general); a NaN or an
// infinity prints null, since JSON has neither.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace zerosum::json {

/// JSON emitter.  The caller provides structure through
/// beginObject/beginArray and key/value calls; the writer tracks comma
/// placement.  Misuse (value without key inside an object, unbalanced
/// end) throws StateError — emitting a malformed document silently would
/// defeat the purpose of every reader.
class Writer {
 public:
  /// String mode: every byte is appended to `out`.
  explicit Writer(std::string& out) : out_(out) {}
  /// Stream mode: formats into the writer's own string and hands it to
  /// `stream` at each complete document, past 64 KiB, and at destruction.
  /// `stream` must outlive the writer.
  explicit Writer(std::ostream& stream) : out_(own_), stream_(&stream) {}
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Writer& beginObject();
  Writer& endObject();
  Writer& beginArray();
  Writer& endArray();

  /// Emits the key of the next key/value pair (objects only).
  Writer& key(std::string_view k);

  Writer& value(std::string_view v);
  /// A string, not a bool: without this overload a const char* would
  /// convert to bool ahead of std::string_view.
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(double v);
  Writer& value(std::int64_t v);
  Writer& value(std::uint64_t v);
  Writer& value(bool v);
  Writer& null();

  /// key() + value() in one call.
  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// Depth of open containers (0 when the document is complete).
  [[nodiscard]] int depth() const { return static_cast<int>(stack_.size()); }

 private:
  enum class Frame : std::uint8_t { kObject, kArray };
  struct Level {
    Frame frame;
    bool empty;  ///< no member or element written yet
  };

  void beforeValue();
  void open(Frame frame, char bracket);
  /// Stream mode: hands the buffer over when the document is complete
  /// or the buffer has grown past kStreamChunk.
  Writer& emitted() {
    if (stream_ != nullptr &&
        (stack_.empty() || own_.size() > kStreamChunk)) {
      handOver();
    }
    return *this;
  }
  void handOver();

  static constexpr std::size_t kStreamChunk = 64 * 1024;

  std::string own_;  ///< stream mode's buffer
  std::string& out_;
  std::ostream* stream_ = nullptr;
  std::vector<Level> stack_;
  bool keyPending_ = false;
};

/// A parsed JSON document node.
class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : kind_(Kind::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : kind_(Kind::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::kArray; }

  /// Typed accessors; throw ParseError when the kind does not match.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const Array& asArray() const;
  [[nodiscard]] const Object& asObject() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& name) const;
  /// Member `name` as a number/string with a fallback.
  [[nodiscard]] double numberOr(const std::string& name,
                                double fallback) const;
  [[nodiscard]] std::string stringOr(const std::string& name,
                                     const std::string& fallback) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses one JSON document; trailing non-whitespace, unterminated
/// containers, or any grammar violation throws ParseError.
Value parse(const std::string& text);

}  // namespace zerosum::json
