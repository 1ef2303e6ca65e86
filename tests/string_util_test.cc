// Unit tests for string helpers.
#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace blaeu {
namespace {

TEST(TrimTest, RemovesOuterWhitespaceOnly) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(TrimTest, TrimsExactlyWhatIsspaceAcceptsOnEveryByte) {
  // The program runs in the C locale; Trim must agree with std::isspace
  // there on all 256 byte values, at either end of a field.
  for (int b = 0; b < 256; ++b) {
    SCOPED_TRACE("byte " + std::to_string(b));
    const char c = static_cast<char>(b);
    const bool space = std::isspace(b) != 0;
    const std::string field = std::string(1, c) + "x" + std::string(1, c);
    EXPECT_EQ(Trim(field), space ? std::string_view("x")
                                 : std::string_view(field));
    EXPECT_EQ(Trim(std::string(1, c)).empty(), space);
  }
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("AbC_1"), "abc_1");
}

TEST(ParseDoubleTest, AcceptsNumbersRejectsJunk) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(ParseDouble("3.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("inf", &v));  // non-finite rejected
}

TEST(ParseIntTest, AcceptsIntsRejectsFloats) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt("4.2", &v));
  EXPECT_FALSE(ParseInt("", &v));
}

TEST(FormatDoubleTest, CompactRendering) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(0.125, 3), "0.125");
}

TEST(CsvEscapeTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(BackslashEscapeTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(BackslashEscape("plain"), "plain");
  EXPECT_EQ(BackslashEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(BackslashEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(BackslashEscape("line1\nline2"), "line1\\nline2");
}

}  // namespace
}  // namespace blaeu
