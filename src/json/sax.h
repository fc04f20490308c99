// json::sax_parse: the one JSON grammar, as a template over its handler.
//
// The grammar and its token scanners live here rather than in json.cpp so
// that each caller instantiates them with its own handler type: a `final`
// handler (the Kineto trace reader's, the DOM builder's) then has its
// callbacks bound statically and inlined into the scan loop instead of
// called through the vtable once per token. A handler passed as a
// SaxHandler& still works, through virtual calls.
//
// String lifetimes: the views passed to key()/string_value() are either
// slices of the input text (strings without escape sequences — the
// overwhelming case for trace files) or a reference into an internal
// unescape scratch buffer that is overwritten by the next string token.
// Either way they are valid only for the duration of the callback; copy or
// intern what you keep.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "json/json.h"

namespace lumos::json {

/// Event-stream (SAX) callbacks: sax_parse() walks the document and
/// invokes one callback per token instead of materializing a Value tree.
/// This is the zero-copy ingest path the columnar trace reader uses — a
/// 350KB Kineto file parses without allocating a DOM or an owning
/// std::string per event name. Every callback defaults to a no-op.
class SaxHandler {
 public:
  virtual ~SaxHandler() = default;
  virtual void null_value() {}
  virtual void bool_value(bool /*b*/) {}
  virtual void int_value(std::int64_t /*i*/) {}
  virtual void double_value(double /*d*/) {}
  virtual void string_value(std::string_view /*s*/) {}
  /// Object member key; the matching value callback (or container begin)
  /// follows immediately.
  virtual void key(std::string_view /*k*/) {}
  virtual void begin_object() {}
  virtual void end_object() {}
  virtual void begin_array() {}
  virtual void end_array() {}
};

namespace detail {

/// Throws the ParseError for `message` at byte `pos` of `text` (the line
/// is counted here, off the scan loop).
[[noreturn]] void fail_at(std::string_view text, std::size_t pos,
                          const std::string& message);

/// The grammar's lexical layer: position tracking, error reporting, and
/// the string/number token scanners. String scanning
/// is zero-copy: a string without escape sequences is returned as a slice
/// of the input; escaped strings are unescaped into a reusable scratch
/// buffer (valid until the next string token).
class Scanner {
 protected:
  explicit Scanner(std::string_view text) : text_(text) {}

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
    fail_at(text_, pos_, message);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string scratch_;
};

/// The one grammar implementation: recursive descent over Scanner tokens,
/// driving the handler's callbacks. The DOM path (parse()) is a handler
/// that builds the Value tree, so accept/reject behavior and diagnostics
/// cannot diverge between the two APIs. Each level recurses with the count
/// of open containers, which stops at kMaxDepth.
template <class Handler>
class SaxParser : Scanner {
 public:
  SaxParser(std::string_view text, Handler& handler)
      : Scanner(text), handler_(handler) {}

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

  Handler& handler_;
};

}  // namespace detail

/// Parses `text`, driving `handler` (a SaxHandler, or any type with its
/// callbacks). Accepts/rejects exactly the same documents as parse() and
/// throws the same ParseError diagnostics.
template <class Handler>
void sax_parse(std::string_view text, Handler& handler) {
  detail::SaxParser<Handler>(text, handler).parse_document();
}

}  // namespace lumos::json
