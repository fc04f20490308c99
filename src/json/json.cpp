#include "json/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace lumos::json {

// ---------------------------------------------------------------------------
// Object
// ---------------------------------------------------------------------------

Object::Object(std::initializer_list<std::pair<std::string, Value>> items) {
  for (const auto& [key, value] : items) (*this)[key] = value;
}

Value& Object::operator[](std::string_view key) {
  for (auto& [k, v] : items_) {
    if (k == key) return v;
  }
  items_.emplace_back(std::string(key), Value());
  return items_.back().second;
}

const Value& Object::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  throw std::out_of_range("json::Object: missing key '" + std::string(key) +
                          "'");
}

Value& Object::at(std::string_view key) {
  for (auto& [k, v] : items_) {
    if (k == key) return v;
  }
  throw std::out_of_range("json::Object: missing key '" + std::string(key) +
                          "'");
}

bool Object::contains(std::string_view key) const {
  return find(key) != nullptr;
}

const Value* Object::find(std::string_view key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Object::operator==(const Object& other) const {
  return items_ == other.items_;
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

Kind Value::kind() const {
  switch (data_.index()) {
    case 0: return Kind::Null;
    case 1: return Kind::Bool;
    case 2: return Kind::Int;
    case 3: return Kind::Double;
    case 4: return Kind::String;
    case 5: return Kind::ArrayKind;
    default: return Kind::ObjectKind;
  }
}

namespace {
[[noreturn]] void type_error(const char* want, Kind got) {
  static constexpr std::array<const char*, 7> names = {
      "null", "bool", "int", "double", "string", "array", "object"};
  throw TypeError(std::string("json::Value: expected ") + want + ", got " +
                  names[static_cast<std::size_t>(got)]);
}
}  // namespace

std::int64_t to_int64(double d) {
  // -2^63 and 2^63 are exact doubles; NaN fails both compares.
  if (!(d >= -0x1p63 && d < 0x1p63)) {
    throw TypeError("json: number outside the int64 range");
  }
  return static_cast<std::int64_t>(d);
}

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  type_error("bool", kind());
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const auto* d = std::get_if<double>(&data_)) return to_int64(*d);
  type_error("number", kind());
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&data_))
    return static_cast<double>(*i);
  type_error("number", kind());
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  type_error("string", kind());
}

const Array& Value::as_array() const {
  if (const auto* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", kind());
}

Array& Value::as_array() {
  if (auto* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", kind());
}

const Object& Value::as_object() const {
  if (const auto* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", kind());
}

Object& Value::as_object() {
  if (auto* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", kind());
}

std::int64_t Value::get_int(std::string_view key,
                            std::int64_t fallback) const {
  if (!is_object()) return fallback;
  const Value* v = as_object().find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : fallback;
}

bool Value::get_bool(std::string_view key, bool fallback) const {
  if (!is_object()) return fallback;
  const Value* v = as_object().find(key);
  if (v == nullptr) return fallback;
  if (v->is_bool()) return v->as_bool();
  return v->is_number() ? v->as_int() != 0 : fallback;
}

double Value::get_double(std::string_view key, double fallback) const {
  if (!is_object()) return fallback;
  const Value* v = as_object().find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : fallback;
}

std::string Value::get_string(std::string_view key,
                              std::string fallback) const {
  if (!is_object()) return fallback;
  const Value* v = as_object().find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

bool Value::operator==(const Value& other) const {
  // Cross-type numeric equality (1 == 1.0) keeps golden tests tolerant of
  // round-trips through tools that canonicalize numbers.
  if (is_number() && other.is_number() && kind() != other.kind()) {
    return as_double() == other.as_double();
  }
  return data_ == other.data_;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

/// Shared lexical layer of the DOM and SAX parsers: position tracking,
/// error reporting, and the string/number token scanners. String scanning
/// is zero-copy: a string without escape sequences is returned as a slice
/// of the input; escaped strings are unescaped into a reusable scratch
/// buffer (valid until the next string token).
class ScannerBase {
 protected:
  explicit ScannerBase(std::string_view text) : text_(text) {}

  std::string_view scan_string() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        std::string_view out = text_.substr(start, pos_ - start);
        ++pos_;
        return out;
      }
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
      ++pos_;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
      fail("unescaped control character in string");
    }
    // Escape found: fall back to unescaping into the scratch buffer.
    scratch_.assign(text_.data() + start, pos_ - start);
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return scratch_;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        scratch_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape sequence");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': scratch_.push_back('"'); break;
        case '\\': scratch_.push_back('\\'); break;
        case '/': scratch_.push_back('/'); break;
        case 'b': scratch_.push_back('\b'); break;
        case 'f': scratch_.push_back('\f'); break;
        case 'n': scratch_.push_back('\n'); break;
        case 'r': scratch_.push_back('\r'); break;
        case 't': scratch_.push_back('\t'); break;
        case 'u': append_unicode_escape(scratch_); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    // Surrogate pair handling: a high surrogate must be followed by a
    // \uXXXX low surrogate; combine into a single code point.
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
          text_[pos_ + 1] == 'u') {
        pos_ += 2;
        unsigned low = parse_hex4();
        if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
      } else {
        fail("unpaired high surrogate");
      }
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    append_utf8(out, code);
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  struct NumberToken {
    bool is_int = false;
    std::int64_t i = 0;
    double d = 0.0;
  };

  NumberToken scan_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
      fail("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero may not be followed by digits
      if (pos_ < text_.size() && is_digit(text_[pos_])) {
        fail("leading zero in number");
      }
    } else {
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    bool is_floating = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_floating = true;
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        fail("digit expected after decimal point");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_floating = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
        fail("digit expected in exponent");
      }
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (!is_floating) {
      std::int64_t value = 0;
      auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return {true, value, 0.0};
      }
      // Out-of-range integers degrade to double, matching common JSON libs.
    }
    double value = 0;
    auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("unparseable number");
    }
    return {false, 0, value};
  }

  void expect_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
    }
    pos_ += word.size();
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError(message, pos_, line);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string scratch_;
};

/// The one grammar implementation: recursive descent over ScannerBase
/// tokens, driving SaxHandler callbacks. The DOM path (parse()) is a
/// SaxHandler that builds the Value tree, so accept/reject behavior and
/// diagnostics cannot diverge between the two APIs. Each level recurses
/// with the count of open containers, which stops at kMaxDepth.
class SaxParser : ScannerBase {
 public:
  SaxParser(std::string_view text, SaxHandler& handler)
      : ScannerBase(text), handler_(handler) {}

  void parse_document() {
    skip_whitespace();
    parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
  }

 private:
  /// `depth` counts the containers enclosing the value.
  void parse_value(std::size_t depth) {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': parse_object(nested(depth)); return;
      case '[': parse_array(nested(depth)); return;
      case '"': handler_.string_value(scan_string()); return;
      case 't': expect_literal("true"); handler_.bool_value(true); return;
      case 'f': expect_literal("false"); handler_.bool_value(false); return;
      case 'n': expect_literal("null"); handler_.null_value(); return;
      default: {
        const NumberToken t = scan_number();
        if (t.is_int) {
          handler_.int_value(t.i);
        } else {
          handler_.double_value(t.d);
        }
        return;
      }
    }
  }

  /// The depth inside one more container, or a ParseError past kMaxDepth.
  std::size_t nested(std::size_t depth) const {
    if (depth == kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    return depth + 1;
  }

  void parse_object(std::size_t depth) {
    expect('{');
    handler_.begin_object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      handler_.end_object();
      return;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected string key in object");
      handler_.key(scan_string());
      skip_whitespace();
      expect(':');
      skip_whitespace();
      parse_value(depth);
      skip_whitespace();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        handler_.end_object();
        return;
      }
      fail("expected ',' or '}' in object");
    }
  }

  void parse_array(std::size_t depth) {
    expect('[');
    handler_.begin_array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      handler_.end_array();
      return;
    }
    while (true) {
      skip_whitespace();
      parse_value(depth);
      skip_whitespace();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        handler_.end_array();
        return;
      }
      fail("expected ',' or ']' in array");
    }
  }

  SaxHandler& handler_;
};

/// SaxHandler that assembles the Value tree for parse().
class ValueBuilder final : public SaxHandler {
 public:
  Value take() { return std::move(root_); }

  void null_value() override { add(Value(nullptr)); }
  void bool_value(bool b) override { add(Value(b)); }
  void int_value(std::int64_t i) override { add(Value(i)); }
  void double_value(double d) override { add(Value(d)); }
  void string_value(std::string_view s) override { add(Value(std::string(s))); }
  // Copy the key out immediately: the view may point into the scanner's
  // scratch buffer, which the value's own string tokens recycle.
  void key(std::string_view k) override { stack_.back().pending_key = k; }
  void begin_object() override { stack_.push_back({Value(Object{}), {}}); }
  void end_object() override { pop(); }
  void begin_array() override { stack_.push_back({Value(Array{}), {}}); }
  void end_array() override { pop(); }

 private:
  struct Level {
    Value container;
    std::string pending_key;
  };

  void add(Value v) {
    if (stack_.empty()) {
      root_ = std::move(v);
    } else if (Level& top = stack_.back(); top.container.is_object()) {
      top.container.as_object()[top.pending_key] = std::move(v);
    } else {
      top.container.as_array().push_back(std::move(v));
    }
  }

  void pop() {
    Value done = std::move(stack_.back().container);
    stack_.pop_back();
    add(std::move(done));
  }

  Value root_;
  std::vector<Level> stack_;
};

}  // namespace

Value parse(std::string_view text) {
  ValueBuilder builder;
  SaxParser(text, builder).parse_document();
  return builder.take();
}

void sax_parse(std::string_view text, SaxHandler& handler) {
  SaxParser(text, handler).parse_document();
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void write_double(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; emit null like most tolerant writers.
    out += "null";
    return;
  }
  if (std::abs(d) < 1e15 &&
      d == static_cast<double>(static_cast<std::int64_t>(d))) {
    // Keep integral doubles readable ("5.0" -> "5.0" preserves doubleness).
    // The range test comes first: the cast is undefined past int64.
    out += std::to_string(static_cast<std::int64_t>(d));
    out += ".0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

void write_value(const Value& v, const WriteOptions& opt, int depth,
                 std::string& out) {
  const bool pretty = opt.indent >= 0;
  auto newline_indent = [&](int level) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(level * opt.indent), ' ');
  };
  switch (v.kind()) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Kind::Int: out += std::to_string(v.as_int()); break;
    case Kind::Double: write_double(out, v.as_double()); break;
    case Kind::String:
      out.push_back('"');
      out += escape(v.as_string());
      out.push_back('"');
      break;
    case Kind::ArrayKind: {
      const Array& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const Value& item : arr) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(depth + 1);
        write_value(item, opt, depth + 1, out);
      }
      newline_indent(depth);
      out.push_back(']');
      break;
    }
    case Kind::ObjectKind: {
      const Object& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(depth + 1);
        out.push_back('"');
        out += escape(key);
        out += pretty ? "\": " : "\":";
        write_value(value, opt, depth + 1, out);
      }
      newline_indent(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string write(const Value& value, const WriteOptions& options) {
  std::string out;
  write_value(value, options, 0, out);
  return out;
}

}  // namespace lumos::json
