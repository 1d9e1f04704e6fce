// Edge-case coverage for the obs JSON reader/writer pair: the semantics the
// artifact loaders rely on (documented in src/obs/json.hpp) and the
// writer/parser round-trip at the limits of double precision.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "obs/json.hpp"

namespace swiftest::obs {
namespace {

// --- duplicate object keys -------------------------------------------------

TEST(JsonUtil, DuplicateKeysLastValueWins) {
  const auto doc = parse_json(R"({"k": 1, "k": 2, "k": 3})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->members().size(), 1u);
  EXPECT_DOUBLE_EQ(doc->get_number("k", -1.0), 3.0);
}

TEST(JsonUtil, DuplicateKeysLastTypeWins) {
  const auto doc = parse_json(R"({"k": [1, 2], "k": "text"})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue* v = doc->get("k");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->type(), JsonValue::Type::kString);
  EXPECT_EQ(v->as_string(), "text");
}

// --- nesting depth ---------------------------------------------------------

std::string nested_arrays(int depth) {
  std::string text;
  text.reserve(static_cast<std::size_t>(depth) * 2 + 1);
  for (int i = 0; i < depth; ++i) text += '[';
  text += '1';
  for (int i = 0; i < depth; ++i) text += ']';
  return text;
}

TEST(JsonUtil, NestingAtDepthLimitParses) {
  const auto doc = parse_json(nested_arrays(kMaxJsonDepth));
  ASSERT_TRUE(doc.has_value());
  const JsonValue* v = &*doc;
  for (int i = 0; i < kMaxJsonDepth; ++i) {
    ASSERT_TRUE(v->is_array());
    ASSERT_EQ(v->as_array().size(), 1u);
    v = &v->as_array().front();
  }
  EXPECT_DOUBLE_EQ(v->as_number(), 1.0);
}

TEST(JsonUtil, NestingBeyondDepthLimitRejected) {
  std::string error;
  const auto doc = parse_json(nested_arrays(kMaxJsonDepth + 1), &error);
  EXPECT_FALSE(doc.has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(JsonUtil, DeepObjectNestingRejectedNotCrashing) {
  // Mixed object/array nesting far past the limit must fail cleanly, not
  // overflow the parse stack.
  std::string text;
  for (int i = 0; i < 4096; ++i) text += R"({"a":[)";
  const auto doc = parse_json(text);
  EXPECT_FALSE(doc.has_value());
}

// --- \uXXXX escapes and surrogates -----------------------------------------

TEST(JsonUtil, SurrogatePairDecodesToOneCodePoint) {
  // U+1F600 as the surrogate pair 😀 -> 4-byte UTF-8.
  const auto doc = parse_json("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonUtil, LoneHighSurrogateBecomesReplacement) {
  const auto doc = parse_json("\"a\\ud800z\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "a\xEF\xBF\xBDz");
}

TEST(JsonUtil, LoneLowSurrogateBecomesReplacement) {
  const auto doc = parse_json("\"\\udc00\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xEF\xBF\xBD");
}

TEST(JsonUtil, HighSurrogateBeforeNonSurrogateEscapeKeepsBoth) {
  // The high surrogate degrades to U+FFFD and the following escape still
  // decodes on its own.
  const auto doc = parse_json("\"\\ud800\\u0041\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xEF\xBF\xBD"
                              "A");
}

TEST(JsonUtil, BasicMultilingualPlaneEscapeDecodes) {
  const auto doc = parse_json("\"\\u00e9\\u4e2d\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonUtil, MalformedUnicodeEscapeIsAnError) {
  std::string error;
  EXPECT_FALSE(parse_json("\"\\u12g4\"", &error).has_value());
  EXPECT_FALSE(parse_json("\"\\u12\"").has_value());
}

// --- exact u64 round-trip --------------------------------------------------

TEST(JsonUtil, U64ExactAtTwoPow63) {
  // 2^63 is not representable as a distinct double neighbour-free region:
  // doubles hold 53 mantissa bits, so the raw token must survive.
  constexpr std::uint64_t kTwoPow63 = 1ull << 63;
  std::string text;
  append_u64(text, kTwoPow63);
  EXPECT_EQ(text, "9223372036854775808");
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_u64(), kTwoPow63);
}

TEST(JsonUtil, U64ExactAtMaxAndNeighbours) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{(1ull << 53) + 1},
        std::uint64_t{~0ull - 1}, std::uint64_t{~0ull}}) {
    std::string text;
    append_u64(text, v);
    const auto doc = parse_json(text);
    ASSERT_TRUE(doc.has_value()) << text;
    EXPECT_EQ(doc->as_u64(), v) << text;
  }
}

TEST(JsonUtil, U64FallbackForNonIntegerTokens) {
  EXPECT_EQ(parse_json("-5")->as_u64(7), 7u);       // negative -> fallback
  EXPECT_EQ(parse_json("2.5")->as_u64(), 2u);       // fraction -> double read
  EXPECT_EQ(parse_json("1e3")->as_u64(), 1000u);    // exponent -> double read
  EXPECT_EQ(parse_json(R"("9")")->as_u64(4), 4u);   // wrong type -> fallback
}

TEST(JsonUtil, U64FallbackAtOrPastTwoPow64) {
  // No uint64 holds these; casting their double value would be undefined.
  for (const char* text : {"18446744073709551616", "1.8446744073709552e19", "1e300",
                           R"({"tid": 1e300})"}) {
    const auto doc = parse_json(text);
    ASSERT_TRUE(doc.has_value()) << text;
    const JsonValue& value = doc->is_object() ? *doc->get("tid") : *doc;
    EXPECT_EQ(value.as_u64(7), 7u) << text;
  }
  // The largest double below 2^64 still reads.
  EXPECT_EQ(parse_json("1.8446744073709550e19")->as_u64(), 18446744073709549568ull);
}

// --- writer/reader round-trip misc -----------------------------------------

TEST(JsonUtil, NonFiniteDoublesRenderAsQuotedStrings) {
  std::string text;
  append_double(text, std::numeric_limits<double>::infinity());
  EXPECT_EQ(text, "\"Infinity\"");
  text.clear();
  append_double(text, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(text, "\"NaN\"");
}

TEST(JsonUtil, EscapedStringRoundTrips) {
  const std::string raw = "line\nbreak \"quote\" back\\slash \x01 tab\t";
  std::string text;
  append_json_string(text, raw);
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), raw);
}

TEST(JsonUtil, TrailingGarbageRejected) {
  std::string error;
  EXPECT_FALSE(parse_json("{} extra", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

}  // namespace
}  // namespace swiftest::obs
