// Unit tests for the JSON substrate (lumos::json).
#include "json/json.h"
#include "json/sax.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace lumos::json {
namespace {

TEST(JsonValue, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.kind(), Kind::Null);
}

TEST(JsonValue, BoolRoundTrip) {
  Value t(true), f(false);
  EXPECT_TRUE(t.as_bool());
  EXPECT_FALSE(f.as_bool());
  EXPECT_TRUE(t.is_bool());
}

TEST(JsonValue, IntPreservesExactValue) {
  const std::int64_t big = 9'007'199'254'740'993LL;  // > 2^53, breaks double
  Value v(big);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), big);
}

TEST(JsonValue, DoubleWidensFromInt) {
  Value v(std::int64_t{42});
  EXPECT_DOUBLE_EQ(v.as_double(), 42.0);
}

TEST(JsonValue, IntTruncatesFromDouble) {
  Value v(3.9);
  EXPECT_EQ(v.as_int(), 3);
}

TEST(JsonValue, IntRejectsADoubleOutsideInt64) {
  // The cast is undefined past int64, so reading one is an error.
  EXPECT_EQ(Value(-0x1p63).as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(Value(0x1p63).as_int(), TypeError);
  EXPECT_THROW(Value(-1e300).as_int(), TypeError);
  EXPECT_THROW(Value(std::nan("")).as_int(), TypeError);
  EXPECT_THROW(parse("123456789012345678901234567890").as_int(), TypeError);
}

TEST(JsonValue, TypeErrorOnMismatch) {
  Value v("text");
  EXPECT_THROW(v.as_bool(), TypeError);
  EXPECT_THROW(v.as_int(), TypeError);
  EXPECT_THROW(v.as_array(), TypeError);
  EXPECT_THROW(v.as_object(), TypeError);
}

TEST(JsonValue, CrossTypeNumericEquality) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_NE(Value(1), Value(1.5));
}

TEST(JsonObject, PreservesInsertionOrder) {
  Object o;
  o["zebra"] = 1;
  o["alpha"] = 2;
  o["mid"] = 3;
  std::vector<std::string> keys;
  for (const auto& [k, v] : o) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"zebra", "alpha", "mid"}));
}

TEST(JsonObject, AtThrowsOnMissingKey) {
  Object o;
  o["present"] = 1;
  EXPECT_THROW(o.at("absent"), std::out_of_range);
  EXPECT_EQ(o.at("present").as_int(), 1);
}

TEST(JsonObject, FindReturnsNullWhenAbsent) {
  Object o;
  EXPECT_EQ(o.find("nope"), nullptr);
  o["yep"] = true;
  ASSERT_NE(o.find("yep"), nullptr);
  EXPECT_TRUE(o.find("yep")->as_bool());
}

TEST(JsonObject, OperatorBracketOverwrites) {
  Object o;
  o["k"] = 1;
  o["k"] = 2;
  EXPECT_EQ(o.size(), 1u);
  EXPECT_EQ(o.at("k").as_int(), 2);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_EQ(parse("123").as_int(), 123);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5E-2").as_double(), -0.025);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntVsDoubleDiscrimination) {
  EXPECT_TRUE(parse("5").is_int());
  EXPECT_TRUE(parse("5.0").is_double());
  EXPECT_TRUE(parse("5e0").is_double());
}

TEST(JsonParse, HugeIntegerDegradesToDouble) {
  Value v = parse("123456789012345678901234567890");
  EXPECT_TRUE(v.is_double());
  EXPECT_GT(v.as_double(), 1e29);
}

TEST(JsonParse, NestedStructures) {
  Value v = parse(R"({"a": [1, {"b": [true, null]}], "c": {"d": -1.5}})");
  const Object& root = v.as_object();
  EXPECT_EQ(root.at("a").as_array()[0].as_int(), 1);
  EXPECT_TRUE(
      root.at("a").as_array()[1].as_object().at("b").as_array()[0].as_bool());
  EXPECT_DOUBLE_EQ(root.at("c").as_object().at("d").as_double(), -1.5);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_TRUE(parse("{}").as_object().empty());
  EXPECT_TRUE(parse("[ ]").as_array().empty());
  EXPECT_TRUE(parse("{ }").as_object().empty());
}

TEST(JsonParse, WhitespaceTolerance) {
  Value v = parse(" \n\t { \"k\" :\r [ 1 , 2 ] } \n");
  EXPECT_EQ(v.as_object().at("k").as_array().size(), 2u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(parse(R"("a\\b")").as_string(), "a\\b");
  EXPECT_EQ(parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(parse(R"("a\tb")").as_string(), "a\tb");
  EXPECT_EQ(parse(R"("a\/b")").as_string(), "a/b");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");          // é
  EXPECT_EQ(parse(R"("中")").as_string(), "\xe4\xb8\xad");      // 中
  EXPECT_EQ(parse(R"("😀")").as_string(),
            "\xf0\x9f\x98\x80");  // emoji via surrogate pair
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("[1,]"), ParseError);
  EXPECT_THROW(parse("{\"a\":}"), ParseError);
  EXPECT_THROW(parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(parse("tru"), ParseError);
  EXPECT_THROW(parse("01"), ParseError);
  EXPECT_THROW(parse("1."), ParseError);
  EXPECT_THROW(parse("1e"), ParseError);
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("\"bad\\q\""), ParseError);
  EXPECT_THROW(parse("[1] garbage"), ParseError);
  EXPECT_THROW(parse("\"\\ud800\""), ParseError);  // unpaired surrogate
}

/// `depth` arrays nested inside each other, innermost empty.
std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonParse, NestingIsBoundedByMaxDepth) {
  // kMaxDepth levels parse; one more is a ParseError, and so is a hostile
  // million, which would otherwise overflow the recursion's stack.
  EXPECT_TRUE(parse(nested_arrays(kMaxDepth)).is_array());
  EXPECT_THROW(parse(nested_arrays(kMaxDepth + 1)), ParseError);
  EXPECT_THROW(parse(std::string(1'000'000, '[')), ParseError);
  std::string objects;
  for (std::size_t i = 0; i <= kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kMaxDepth + 1, '}');
  EXPECT_THROW(parse(objects), ParseError);
  SaxHandler ignore;
  EXPECT_THROW(sax_parse(nested_arrays(kMaxDepth + 1), ignore), ParseError);
  EXPECT_NO_THROW(sax_parse(nested_arrays(kMaxDepth), ignore));
}

TEST(JsonParse, ErrorCarriesLineNumber) {
  try {
    parse("{\n\"a\": 1,\n bad\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(JsonWrite, CompactOutput) {
  Object o;
  o["a"] = Array{Value(1), Value(2)};
  o["b"] = "x";
  EXPECT_EQ(write(Value(std::move(o))), R"({"a":[1,2],"b":"x"})");
}

TEST(JsonWrite, PrettyOutputIndents) {
  Object o;
  o["k"] = Array{Value(1)};
  const std::string pretty = write(Value(std::move(o)), {.indent = 2});
  EXPECT_NE(pretty.find("{\n  \"k\": [\n    1\n  ]\n}"), std::string::npos);
}

TEST(JsonWrite, EscapesControlCharacters) {
  EXPECT_EQ(write(Value(std::string("a\x01""b"))), "\"a\\u0001b\"");
  EXPECT_EQ(write(Value(std::string("tab\there"))), "\"tab\\there\"");
}

TEST(JsonWrite, DoubleFormatting) {
  EXPECT_EQ(write(Value(5.0)), "5.0");  // preserves doubleness
  EXPECT_EQ(write(Value(std::numeric_limits<double>::quiet_NaN())), "null");
  EXPECT_EQ(write(Value(std::numeric_limits<double>::infinity())), "null");
  // Past int64, where the integral fast path's cast would be undefined.
  EXPECT_EQ(write(Value(-1e300)), "-1.0000000000000001e+300");
}

TEST(JsonRoundTrip, ComplexDocumentIsStable) {
  const std::string doc =
      R"({"traceEvents":[{"name":"kernel","ts":1.5,"dur":2.25,)"
      R"("args":{"correlation":12345678901234,"stream":7}}],"ok":true})";
  Value first = parse(doc);
  Value second = parse(write(first));
  EXPECT_EQ(first, second);
}

TEST(JsonRoundTrip, PreciseTimestampsSurvive) {
  // Nanosecond-scale timestamps as microsecond doubles must survive a
  // round-trip with enough precision for exact ns reconstruction.
  const double ts_us = 123456789.123;  // ~123.45s in us with ns precision
  Value v = parse(write(Value(ts_us)));
  EXPECT_NEAR(v.as_double(), ts_us, 1e-6);
}

class JsonFuzzLikeCases : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonFuzzLikeCases, ParsesWithoutCrash) {
  EXPECT_NO_THROW(parse(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Valid, JsonFuzzLikeCases,
    ::testing::Values(R"([[[[[1]]]]])", R"({"a":{"b":{"c":{}}}})",
                      R"([1,2.5,"s",null,true,false,{},[]])",
                      R"("string with nul")",
                      R"(-0.0)", R"(1e-300)", R"(1E+300)"));

// ---------------------------------------------------------------------------
// SAX parser
// ---------------------------------------------------------------------------

/// Records the token stream as a flat text script for easy assertions.
class RecordingHandler : public SaxHandler {
 public:
  void null_value() override { log_ += "null;"; }
  void bool_value(bool b) override { log_ += b ? "true;" : "false;"; }
  void int_value(std::int64_t i) override {
    log_ += "i" + std::to_string(i) + ";";
  }
  void double_value(double d) override {
    log_ += "d" + std::to_string(static_cast<long long>(d * 100)) + ";";
  }
  void string_value(std::string_view s) override {
    log_ += "s(" + std::string(s) + ");";
  }
  void key(std::string_view k) override { log_ += "k(" + std::string(k) + ");"; }
  void begin_object() override { log_ += "{"; }
  void end_object() override { log_ += "}"; }
  void begin_array() override { log_ += "["; }
  void end_array() override { log_ += "]"; }

  std::string log_;
};

TEST(SaxParser, EmitsTokenStreamInDocumentOrder) {
  RecordingHandler h;
  sax_parse(R"({"a":[1,2.5,"x"],"b":{"c":null},"d":true})", h);
  EXPECT_EQ(h.log_, "{k(a);[i1;d250;s(x);]k(b);{k(c);null;}k(d);true;}");
}

TEST(SaxParser, UnescapesStringsIncludingSurrogatePairs) {
  RecordingHandler h;
  sax_parse(R"(["q\"b\\s\nn", "A😀"])", h);
  EXPECT_EQ(h.log_, "[s(q\"b\\s\nn);s(A\xF0\x9F\x98\x80);]");
}

TEST(SaxParser, RejectsSameDocumentsAsDomParser) {
  for (const char* bad :
       {"{", "[1,]", R"({"a" 1})", "tru", "1e", "\"unterminated",
        "[1] trailing"}) {
    RecordingHandler h;
    EXPECT_THROW(sax_parse(bad, h), ParseError) << bad;
    EXPECT_THROW(parse(bad), ParseError) << bad;
  }
}

TEST(SaxParser, ZeroCopyViewsPointIntoInputWhenUnescaped) {
  // Strings without escapes must be served as slices of the input buffer
  // (this is what makes trace ingest zero-copy).
  const std::string doc = R"(["plain_name"])";
  struct Probe : SaxHandler {
    const char* lo = nullptr;
    const char* hi = nullptr;
    std::string_view seen;
    void string_value(std::string_view s) override { seen = s; }
  } probe;
  probe.lo = doc.data();
  probe.hi = doc.data() + doc.size();
  sax_parse(doc, probe);
  EXPECT_EQ(probe.seen, "plain_name");
  EXPECT_GE(probe.seen.data(), probe.lo);
  EXPECT_LT(probe.seen.data(), probe.hi);
}

}  // namespace
}  // namespace lumos::json
