// Unit tests for histogram / frequency / scatter summaries.
#include "stats/histogram.h"

#include <gtest/gtest.h>

namespace blaeu::stats {
namespace {

using monet::Column;
using monet::DataType;
using monet::SelectionVector;

TEST(NumericHistogramTest, CountsFallInBins) {
  Column col(DataType::kDouble);
  for (int i = 0; i < 100; ++i) col.AppendDouble(i);
  auto h = *NumericHistogram(col, SelectionVector::All(100), 10);
  EXPECT_EQ(h.counts.size(), 10u);
  for (size_t c : h.counts) EXPECT_EQ(c, 10u);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 99.0);
  EXPECT_EQ(h.total(), 100u);
}

TEST(NumericHistogramTest, NullsCountedSeparately) {
  Column col(DataType::kDouble);
  col.AppendDouble(1);
  col.AppendNull();
  col.AppendDouble(2);
  auto h = *NumericHistogram(col, SelectionVector::All(3), 2);
  EXPECT_EQ(h.null_count, 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(NumericHistogramTest, ConstantDataSingleOccupiedBin) {
  Column col(DataType::kDouble);
  for (int i = 0; i < 5; ++i) col.AppendDouble(7.0);
  auto h = *NumericHistogram(col, SelectionVector::All(5), 4);
  EXPECT_EQ(h.counts[0], 5u);
}

TEST(NumericHistogramTest, StringColumnRejected) {
  Column col(DataType::kString);
  col.AppendString("x");
  auto r = NumericHistogram(col, SelectionVector::All(1), 4);
  EXPECT_EQ(r.status().code(), blaeu::StatusCode::kTypeError);
}

TEST(NumericHistogramTest, ZeroBinsRejected) {
  Column col(DataType::kDouble);
  col.AppendDouble(1);
  auto r = NumericHistogram(col, SelectionVector::All(1), 0);
  EXPECT_EQ(r.status().code(), blaeu::StatusCode::kInvalidArgument);
}

TEST(NumericHistogramTest, AsciiRenderingHasBars) {
  Column col(DataType::kDouble);
  for (int i = 0; i < 20; ++i) col.AppendDouble(i % 4);
  auto h = *NumericHistogram(col, SelectionVector::All(20), 4);
  std::string text = h.ToAscii();
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(FrequencyTest, OrderedByCount) {
  Column col(DataType::kString);
  for (const char* v : {"b", "a", "a", "c", "a", "b"}) col.AppendString(v);
  FrequencyTable t = CategoricalFrequencies(col, SelectionVector::All(6));
  ASSERT_EQ(t.entries.size(), 3u);
  EXPECT_EQ(t.entries[0].first, "a");
  EXPECT_EQ(t.entries[0].second, 3u);
  EXPECT_EQ(t.distinct, 3u);
}

TEST(FrequencyTest, TruncatesToMaxEntries) {
  Column col(DataType::kInt64);
  for (int i = 0; i < 50; ++i) col.AppendInt(i);
  FrequencyTable t = CategoricalFrequencies(col, SelectionVector::All(50), 5);
  EXPECT_EQ(t.entries.size(), 5u);
  EXPECT_LE(t.entries.capacity(), 5u);  // not the 50-value ranking's buffer
  EXPECT_EQ(t.distinct, 50u);
  EXPECT_NE(t.ToAscii().find("more values"), std::string::npos);
}

TEST(ScatterTest, GridCountsMatchPoints) {
  Column x(DataType::kDouble), y(DataType::kDouble);
  for (int i = 0; i < 10; ++i) {
    x.AppendDouble(i);
    y.AppendDouble(i);
  }
  auto s = *BivariateScatter(x, y, SelectionVector::All(10), 5, 5);
  size_t total = 0;
  for (size_t c : s.counts) total += c;
  EXPECT_EQ(total, 10u);
  // Diagonal data: corners occupied.
  EXPECT_GT(s.At(0, 0), 0u);
  EXPECT_GT(s.At(4, 4), 0u);
  EXPECT_EQ(s.At(0, 4), 0u);
}

TEST(ScatterTest, NullPairsSkipped) {
  Column x(DataType::kDouble), y(DataType::kDouble);
  x.AppendDouble(1);
  y.AppendNull();
  x.AppendDouble(2);
  y.AppendDouble(2);
  auto s = *BivariateScatter(x, y, SelectionVector::All(2), 2, 2);
  size_t total = 0;
  for (size_t c : s.counts) total += c;
  EXPECT_EQ(total, 1u);
}

TEST(ScatterTest, AsciiRendersGrid) {
  Column x(DataType::kDouble), y(DataType::kDouble);
  for (int i = 0; i < 40; ++i) {
    x.AppendDouble(i % 8);
    y.AppendDouble(i / 8);
  }
  auto s = *BivariateScatter(x, y, SelectionVector::All(40), 8, 5);
  std::string text = s.ToAscii();
  EXPECT_NE(text.find('|'), std::string::npos);
  EXPECT_NE(text.find("x: ["), std::string::npos);
}

}  // namespace
}  // namespace blaeu::stats
