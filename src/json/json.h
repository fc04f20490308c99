// Minimal self-contained JSON library used for reading and writing
// Kineto/Chrome-trace-format profiling traces.
//
// Design notes:
//  - A Value is a tagged union over null / bool / number (double) /
//    int64 / string / array / object. Integers are kept distinct from
//    doubles so that correlation IDs and nanosecond timestamps survive
//    round-trips exactly.
//  - Objects preserve insertion order (trace tooling, e.g. chrome://tracing
//    and perfetto, is order-tolerant but deterministic output makes golden
//    tests possible).
//  - The parser is a straightforward recursive-descent parser with
//    position-annotated errors; it accepts the full JSON grammar (RFC 8259)
//    and rejects everything else. The grammar is json/sax.h's template,
//    which parse() drives with a DOM-building handler.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace lumos::json {

class Value;

/// Array of JSON values.
using Array = std::vector<Value>;

/// Ordered key/value object. Keys are unique; insertion order is preserved
/// for deterministic serialization.
class Object {
 public:
  Object() = default;
  Object(std::initializer_list<std::pair<std::string, Value>> items);

  /// Returns the value for `key`, inserting a null value if absent.
  Value& operator[](std::string_view key);

  /// Returns the value for `key` or throws std::out_of_range.
  const Value& at(std::string_view key) const;
  Value& at(std::string_view key);

  bool contains(std::string_view key) const;
  /// Returns nullptr when the key is absent.
  const Value* find(std::string_view key) const;

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }
  auto begin() { return items_.begin(); }
  auto end() { return items_.end(); }

  bool operator==(const Object& other) const;

 private:
  std::vector<std::pair<std::string, Value>> items_;
};

/// Error thrown by the parser, annotated with byte offset and line number.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t offset, std::size_t line)
      : std::runtime_error(message + " at line " + std::to_string(line) +
                           " (offset " + std::to_string(offset) + ")"),
        offset_(offset),
        line_(line) {}

  std::size_t offset() const { return offset_; }
  std::size_t line() const { return line_; }

 private:
  std::size_t offset_;
  std::size_t line_;
};

/// Error thrown on type-mismatched access (e.g. as_string() on a number).
class TypeError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// `d` truncated to an int64; TypeError when it is NaN or outside the
/// int64 range, where a plain cast is undefined behaviour.
std::int64_t to_int64(double d);

enum class Kind { Null, Bool, Int, Double, String, ArrayKind, ObjectKind };

/// A JSON value. Cheap to move; copies deep-copy the tree.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(unsigned i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(std::uint64_t i) : data_(static_cast<std::int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Kind kind() const;

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  bool as_bool() const;
  std::int64_t as_int() const;      ///< exact for Int; to_int64 for Double
  double as_double() const;         ///< widens Int to double
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Convenience typed getters with defaults (object-member style access).
  std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  /// get_int for a 32-bit field: TypeError when the member lies outside
  /// the int32 range, where a narrowing cast would silently wrap.
  std::int32_t get_int32(std::string_view key, std::int32_t fallback) const;
  /// A bool member, or a number read as nonzero; `fallback` otherwise.
  bool get_bool(std::string_view key, bool fallback) const;
  double get_double(std::string_view key, double fallback) const;
  std::string get_string(std::string_view key, std::string fallback) const;

  bool operator==(const Value& other) const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

/// Deepest array / object nesting parse() and sax_parse() accept; deeper
/// input is a ParseError. The grammar recurses once per level, so the
/// limit bounds its stack use on hostile input. Kineto traces and serve
/// requests nest fewer than 10 levels.
inline constexpr std::size_t kMaxDepth = 512;

/// Parses `text` as a single JSON document. Throws ParseError on malformed
/// input (including trailing garbage and nesting deeper than kMaxDepth).
Value parse(std::string_view text);

// Event-stream (SAX) parsing — json::SaxHandler and the template
// json::sax_parse(text, handler) — lives in json/sax.h.

/// Serialization options.
struct WriteOptions {
  /// When >= 0, pretty-print with this many spaces per indent level;
  /// when < 0, emit compact single-line output.
  int indent = -1;
};

/// Serializes a value to a JSON string.
std::string write(const Value& value, const WriteOptions& options = {});

/// Escapes a string per the JSON grammar (without surrounding quotes).
std::string escape(std::string_view s);

}  // namespace lumos::json
