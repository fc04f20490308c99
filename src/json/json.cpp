#include "json/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "json/sax.h"

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

std::int32_t Value::get_int32(std::string_view key,
                              std::int32_t fallback) const {
  const std::int64_t v = get_int(key, fallback);
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max()) {
    throw TypeError("json: '" + std::string(key) +
                    "' outside the int32 range");
  }
  return static_cast<std::int32_t>(v);
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
  sax_parse(text, builder);
  return builder.take();
}

void detail::fail_at(std::string_view text, std::size_t pos,
                     const std::string& message) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  throw ParseError(message, pos, line);
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
