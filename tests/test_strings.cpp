#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

namespace zerosum::strings {
namespace {

TEST(Split, Basic) {
  const std::vector<std::string> expected = {"a", "b", "c"};
  EXPECT_EQ(split("a,b,c", ','), expected);
}

TEST(Split, KeepsEmptyTokens) {
  const std::vector<std::string> expected = {"a", "", "b"};
  EXPECT_EQ(split("a,,b", ','), expected);
}

TEST(Split, EmptyInput) {
  const std::vector<std::string> expected = {""};
  EXPECT_EQ(split("", ','), expected);
}

TEST(Split, TrailingSeparator) {
  const std::vector<std::string> expected = {"a", ""};
  EXPECT_EQ(split("a,", ','), expected);
}

TEST(SplitWs, CollapsesRuns) {
  const std::vector<std::string> expected = {"a", "b", "c"};
  EXPECT_EQ(splitWs("  a\t b \n c  "), expected);
}

TEST(SplitWs, EmptyAndBlank) {
  EXPECT_TRUE(splitWs("").empty());
  EXPECT_TRUE(splitWs(" \t\n ").empty());
}

TEST(Trim, RemovesEdges) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\r\nz\n"), "z");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(startsWith("cpu12", "cpu"));
  EXPECT_FALSE(startsWith("cp", "cpu"));
  EXPECT_TRUE(endsWith("file.log", ".log"));
  EXPECT_FALSE(endsWith("log", ".log"));
}

TEST(ToU64, Strict) {
  EXPECT_EQ(toU64("42"), 42u);
  EXPECT_EQ(toU64("0"), 0u);
  EXPECT_FALSE(toU64("42x"));
  EXPECT_FALSE(toU64(""));
  EXPECT_FALSE(toU64("-1"));
  EXPECT_FALSE(toU64(" 7"));
}

TEST(ToI64, Strict) {
  EXPECT_EQ(toI64("-7"), -7);
  EXPECT_EQ(toI64("7"), 7);
  EXPECT_FALSE(toI64("7.5"));
  EXPECT_FALSE(toI64(""));
}

TEST(ToDouble, Strict) {
  EXPECT_DOUBLE_EQ(*toDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*toDouble("-1e3"), -1000.0);
  EXPECT_FALSE(toDouble("1.2.3"));
  EXPECT_FALSE(toDouble(""));
}

TEST(Fixed, Precision) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(1.0, 6), "1.000000");
  EXPECT_EQ(fixed(-0.5, 1), "-0.5");
}

/// What snprintf("%.*f") prints, into a buffer wide enough for DBL_MAX.
std::string printfFixed(double v, int precision) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  EXPECT_LT(n, static_cast<int>(sizeof(buf)));
  return buf;
}

TEST(Fixed, MatchesPrintfForEveryDouble) {
  std::vector<double> values = {
      1e56, -1e55, 1e300, DBL_MAX, -DBL_MAX, 0.0, -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      DBL_MIN, -DBL_TRUE_MIN, 0.0005, 0.125, 2.5, 99.995, 12.345};
  std::mt19937_64 rng(20231112);
  std::uniform_real_distribution<double> moderate(-1e7, 1e7);
  for (int i = 0; i < 2000; ++i) {
    // Any bit pattern: every exponent, subnormals and NaN payloads.
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);
    values.push_back(moderate(rng));
  }
  for (const double v : values) {
    for (int precision = 0; precision <= 6; ++precision) {
      const std::string expected = printfFixed(v, precision);
      EXPECT_EQ(fixed(v, precision), expected) << "precision " << precision;
      // appendFixed appends after what the string already holds.
      std::string out = "x=";
      appendFixed(out, v, precision);
      EXPECT_EQ(out, "x=" + expected) << "precision " << precision;
    }
  }
}

TEST(Fixed, LongValuesAreNotTruncated) {
  // Each is longer than the 63 characters a 64-byte buffer can hold.
  EXPECT_EQ(fixed(1e56, 6), printfFixed(1e56, 6));
  EXPECT_GT(fixed(1e56, 6).size(), 63u);
  EXPECT_GT(fixed(-1e55, 6).size(), 63u);
  EXPECT_EQ(fixed(DBL_MAX, 0).size(), 309u);
  EXPECT_EQ(fixed(1.5, -1), "1.500000");  // negative precision means 6
}

TEST(ZeroPad, Widths) {
  EXPECT_EQ(zeroPad(7, 3), "007");
  EXPECT_EQ(zeroPad(123, 3), "123");
  EXPECT_EQ(zeroPad(1234, 3), "1234");
  EXPECT_EQ(zeroPad(0, 2), "00");
}

TEST(Join, Basics) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Pad, RightAndLeft) {
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padRight("abcde", 4), "abcde");
  EXPECT_EQ(padLeft("7", 3), "  7");
  EXPECT_EQ(padLeft("1234", 3), "1234");
}

}  // namespace
}  // namespace zerosum::strings
