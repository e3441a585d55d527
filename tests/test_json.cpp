#include "util/json.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/check.hpp"

namespace anole {
namespace {

TEST(JsonWriter, EmptyDocumentIsAnEmptyObject) {
  EXPECT_EQ(JsonWriter().finish(), "{}\n");
}

TEST(JsonWriter, NestsObjectsWithoutTrailingCommas) {
  JsonWriter json;
  json.integer("frames", 2000)
      .begin_object("run")
      .number("f1", 0.67951, 4)
      .begin_object("empty")
      .end_object()
      .boolean("ok", true)
      .end_object()
      .boolean("failed", false);
  EXPECT_EQ(json.finish(),
            "{\n"
            "  \"frames\": 2000,\n"
            "  \"run\": {\n"
            "    \"f1\": 0.6795,\n"
            "    \"empty\": {},\n"
            "    \"ok\": true\n"
            "  },\n"
            "  \"failed\": false\n"
            "}\n");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter json;
  json.string("a\"b", "c\\d\ne\x01");
  EXPECT_EQ(json.finish(), "{\n  \"a\\\"b\": \"c\\\\d\\u000ae\\u0001\"\n}\n");
}

TEST(JsonWriter, NumbersKeepTheirDecimalsAndHashesTheirDigits) {
  JsonWriter json;
  json.number("ms", 33.3, 1)
      .number("whole", 2.0, 0)
      .number("neg", -0.00042, 6)
      .number("nan", std::numeric_limits<double>::quiet_NaN(), 3)
      .hash("hash", 0xabcULL)
      .hash("full", 0xfedcba9876543210ULL);
  EXPECT_EQ(json.finish(),
            "{\n"
            "  \"ms\": 33.3,\n"
            "  \"whole\": 2,\n"
            "  \"neg\": -0.000420,\n"
            "  \"nan\": null,\n"
            "  \"hash\": \"0000000000000abc\",\n"
            "  \"full\": \"fedcba9876543210\"\n"
            "}\n");
}

TEST(JsonWriter, RejectsUnbalancedObjects) {
  EXPECT_THROW(JsonWriter().end_object(), ContractViolation);
  JsonWriter open;
  open.begin_object("left_open");
  EXPECT_THROW((void)open.finish(), ContractViolation);
  EXPECT_THROW(JsonWriter().number("x", 1.0, -1), ContractViolation);
}

}  // namespace
}  // namespace anole
