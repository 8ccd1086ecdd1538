#include "core/string_util.h"

#include <cmath>
#include <cstdint>
#include <string_view>

#include <gtest/gtest.h>

namespace bikegraph {
namespace {

TEST(SplitTest, BasicSplit) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoDelimiterYieldsWholeString) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(ParseIntTest, ParsesValidIntegers) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-17"), -17);
  EXPECT_EQ(*ParseInt("  99  "), 99);
  EXPECT_EQ(*ParseInt("0"), 0);
}

TEST(ParseIntTest, RejectsInvalid) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("abc").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("1.5").ok());
  EXPECT_FALSE(ParseInt("999999999999999999999999").ok());
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-6.2603"), -6.2603);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
}

TEST(ParseDoubleTest, RejectsInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("12.3.4").ok());
  EXPECT_FALSE(ParseDouble("lat").ok());
}

TEST(ParseIntTest, SignsAndRangeCodes) {
  EXPECT_EQ(*ParseInt("+42"), 42);
  EXPECT_EQ(*ParseInt(" -9223372036854775808 "), INT64_MIN);
  EXPECT_EQ(ParseInt("9223372036854775808").status().code(),
            StatusCode::kOutOfRange);
  for (const char* bad : {"+", "-", "+-5", "++5", "- 5", "0x10", "1 2"}) {
    EXPECT_EQ(ParseInt(bad).status().code(), StatusCode::kDataLoss) << bad;
  }
  EXPECT_EQ(ParseInt(std::string_view("12\0", 3)).status().code(),
            StatusCode::kDataLoss);
}

TEST(ParseDoubleTest, SignsAndRangeCodes) {
  EXPECT_DOUBLE_EQ(*ParseDouble("+53.349"), 53.349);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -.5 "), -0.5);
  for (const char* nonfinite : {"inf", "-inf", "nan", "+NaN", "infinity"}) {
    EXPECT_EQ(ParseDouble(nonfinite).status().code(), StatusCode::kDataLoss)
        << nonfinite;
  }
  // Overflow, underflow to zero and a subnormal result are all out of
  // range, as strtod's ERANGE made them.
  for (const char* big : {"1e400", "-1e400", "1e-400", "1e-310"}) {
    EXPECT_EQ(ParseDouble(big).status().code(), StatusCode::kOutOfRange)
        << big;
  }
  // Hexadecimal was strtod's and is no longer accepted.
  for (const char* bad : {"+", "+-1", "0x1p3", "1e", "1.5x"}) {
    EXPECT_EQ(ParseDouble(bad).status().code(), StatusCode::kDataLoss) << bad;
  }
}

TEST(FormatTest, FormatDoubleDecimals) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(FormatTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(61872), "61,872");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-61872), "-61,872");
}

}  // namespace
}  // namespace bikegraph
