#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/status.hpp"

namespace fsim::util {
namespace {

TEST(Json, FlatObject) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("wavetoy");
  w.key("runs").value(500);
  w.key("rate").value(0.5);
  w.key("ok").value(true);
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"wavetoy","runs":500,"rate":0.5,"ok":true})");
}

TEST(Json, NestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("xs").begin_array().value(1).value(2).value(3).end_array();
  w.key("inner").begin_object().key("a").null().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"xs":[1,2,3],"inner":{"a":null}})");
}

TEST(Json, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("empty_arr").begin_array().end_array();
  w.key("empty_obj").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"empty_arr":[],"empty_obj":{}})");
}

TEST(Json, StringEscaping) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("a\"b\\c\nd\te");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, ControlCharacterEscaping) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value(std::string("\x01"));
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"\\u0001\"}");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(1.0 / 0.0);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, ArrayOfObjects) {
  JsonWriter w;
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.key("i").value(i);
    w.end_object();
  }
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

TEST(Json, Unsigned64RoundTrip) {
  JsonWriter w;
  w.begin_array();
  w.value(std::uint64_t{18446744073709551615ull});
  w.end_array();
  EXPECT_EQ(w.str(), "[18446744073709551615]");
}

// --- parser ---

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_EQ(parse_json("42").as_int(), 42);
  EXPECT_EQ(parse_json("-7").as_int(), -7);
  // as_i32 refuses what does not fit an int instead of wrapping it.
  EXPECT_EQ(parse_json("2147483647").as_i32(), 2147483647);
  EXPECT_EQ(parse_json("-2147483648").as_i32(), -2147483647 - 1);
  EXPECT_THROW(parse_json("2147483648").as_i32(), SetupError);
  EXPECT_THROW(parse_json("4294967297").as_i32(), SetupError);
  EXPECT_DOUBLE_EQ(parse_json("0.5").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_double(), 1000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, FullUint64PrecisionSurvives) {
  // A double-based parser would corrupt values above 2^53 — seeds and
  // digests are full 64-bit.
  EXPECT_EQ(parse_json("18446744073709551615").as_u64(),
            18446744073709551615ull);
  EXPECT_EQ(parse_json("9007199254740993").as_u64(), 9007199254740993ull);
}

TEST(JsonParse, Containers) {
  const JsonValue v = parse_json(
      R"({"xs": [1, 2, 3], "inner": {"a": null, "b": "x"}, "ok": true})");
  ASSERT_EQ(v.kind(), JsonValue::Kind::kObject);
  ASSERT_EQ(v.at("xs").items().size(), 3u);
  EXPECT_EQ(v.at("xs").items()[2].as_int(), 3);
  EXPECT_TRUE(v.at("inner").at("a").is_null());
  EXPECT_EQ(v.at("inner").at("b").as_string(), "x");
  EXPECT_TRUE(v.at("ok").as_bool());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), SetupError);
  EXPECT_EQ(parse_json("[]").items().size(), 0u);
  EXPECT_EQ(parse_json("{}").members().size(), 0u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse_json(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(JsonParse, WriterOutputRoundTrips) {
  JsonWriter w;
  w.begin_object();
  w.key("app").value("wave\ntoy");
  w.key("seed").value(std::uint64_t{0xfffffffffffffffeull});
  w.key("rate").value(0.125);
  w.key("regions").begin_array().value(1).value(2).end_array();
  w.end_object();
  const JsonValue v = parse_json(w.str());
  EXPECT_EQ(v.at("app").as_string(), "wave\ntoy");
  EXPECT_EQ(v.at("seed").as_u64(), 0xfffffffffffffffeull);
  EXPECT_DOUBLE_EQ(v.at("rate").as_double(), 0.125);
  EXPECT_EQ(v.at("regions").items().size(), 2u);
}

TEST(JsonParse, MalformedInputThrows) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "[1 2]", "{\"a\" 1}", "01x",
        "\"unterminated", "[1],,", "{\"a\":1} trailing"}) {
    EXPECT_THROW(parse_json(bad), SetupError) << "input: " << bad;
  }
}

TEST(JsonParse, TypeMismatchThrows) {
  const JsonValue v = parse_json(R"({"n": 1, "s": "x"})");
  EXPECT_THROW(v.at("n").as_string(), SetupError);
  EXPECT_THROW(v.at("s").as_int(), SetupError);
  EXPECT_THROW(v.at("n").items(), SetupError);
  EXPECT_THROW(parse_json("1.5").as_int(), SetupError);
  EXPECT_THROW(parse_json("-1").as_u64(), SetupError);
}

}  // namespace
}  // namespace fsim::util
