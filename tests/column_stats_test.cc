// Unit tests for value counts, column statistics and primary-key detection.
#include "monet/column_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/rng.h"

namespace blaeu::monet {
namespace {

TEST(ColumnStatsTest, NumericMoments) {
  Column col(DataType::kDouble);
  for (double v : {1.0, 2.0, 3.0, 4.0}) col.AppendDouble(v);
  col.AppendNull();
  ColumnStats s = ComputeColumnStats(col, SelectionVector::All(5));
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.null_count, 1u);
  EXPECT_EQ(s.distinct, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(ColumnStatsTest, TopValuesSortedByFrequency) {
  Column col(DataType::kString);
  for (const char* v : {"a", "b", "a", "c", "a", "b"}) col.AppendString(v);
  ColumnStats s = ComputeColumnStats(col, SelectionVector::All(6));
  ASSERT_GE(s.top_values.size(), 3u);
  EXPECT_EQ(s.top_values[0].first, "a");
  EXPECT_EQ(s.top_values[0].second, 3u);
  EXPECT_EQ(s.top_values[1].first, "b");
}

// The top list keeps the 16 values it shows, in a buffer of that size, not
// in the full ranking's buffer of every distinct value.
TEST(ColumnStatsTest, TopValuesHoldSixteenOfManyDistinct) {
  Column col(DataType::kDouble);
  for (int i = 0; i < 1000; ++i) col.AppendDouble(0.5 + i);
  ColumnStats s = ComputeColumnStats(col, SelectionVector::All(1000));
  EXPECT_EQ(s.distinct, 1000u);
  EXPECT_EQ(s.top_values.size(), 16u);
  EXPECT_LE(s.top_values.capacity(), 16u);
}

TEST(ColumnStatsTest, SelectionRestricted) {
  Column col(DataType::kInt64);
  for (int i = 0; i < 10; ++i) col.AppendInt(i);
  SelectionVector sel({0, 1, 2});
  ColumnStats s = ComputeColumnStats(col, sel);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
}

TEST(ColumnStatsTest, UniqueKeyDetection) {
  // "code" is no key name, so only uniqueness can flag the column.
  auto table_of = [](const std::vector<int64_t>& values) {
    TableBuilder b(Schema({{"code", DataType::kInt64}}));
    for (int64_t v : values) EXPECT_TRUE(b.AppendRow({Value::Int(v)}).ok());
    return *b.Finish();
  };
  EXPECT_EQ(DetectPrimaryKeyColumns(*table_of({0, 1, 2, 3, 4})),
            (std::vector<size_t>{0}));
  EXPECT_TRUE(DetectPrimaryKeyColumns(*table_of({0, 1, 2, 3, 4, 0}))
                  .empty());  // duplicate
}

TablePtr KeyedTable() {
  TableBuilder b(Schema({{"movie_id", DataType::kInt64},
                         {"title", DataType::kString},
                         {"score", DataType::kDouble},
                         {"genre", DataType::kString}}));
  const char* genres[] = {"a", "b", "a", "b"};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(b.AppendRow({Value::Int(i), Value::Str("t" + std::to_string(i)),
                             Value::Double(i * 0.5), Value::Str(genres[i])})
                    .ok());
  }
  return *b.Finish();
}

TEST(PrimaryKeyTest, DetectsIdNamesAndUniqueColumns) {
  auto table = KeyedTable();
  std::vector<size_t> keys = DetectPrimaryKeyColumns(*table);
  // movie_id by name, title by uniqueness; score is a unique double but
  // doubles are not flagged; genre repeats.
  EXPECT_EQ(keys, (std::vector<size_t>{0, 1}));
}

TEST(LooksCategoricalTest, TypesAndCardinality) {
  auto looks_categorical = [](const Column& col) {
    return LooksCategorical(
        col, CountValues(col, SelectionVector::All(col.size()),
                         kCategoricalMaxDistinct));
  };
  Column s(DataType::kString);
  s.AppendString("x");
  EXPECT_TRUE(looks_categorical(s));

  Column year(DataType::kInt64);
  for (int i = 0; i < 100; ++i) year.AppendInt(2007 + (i % 7));
  EXPECT_TRUE(looks_categorical(year));

  Column cont(DataType::kDouble);
  for (int i = 0; i < 100; ++i) cont.AppendDouble(i * 0.37);
  EXPECT_FALSE(looks_categorical(cont));
}

// -- CountValues against the per-cell oracle -------------------------------

/// The reference CountValues is held to: renders every non-null cell with
/// Value::ToString, counts the renderings, and ranks them by count
/// descending, then rendering ascending. More than `max_distinct` distinct
/// renderings report `max_distinct + 1` and no ranking.
ValueCounts CountByRenderingEachCell(const Column& col,
                                     const SelectionVector& sel,
                                     size_t max_distinct) {
  ValueCounts out;
  out.count = sel.size();
  std::map<std::string, size_t> counts;  // rendering ascending
  for (uint32_t r : sel.rows()) {
    if (col.IsNull(r)) {
      ++out.null_count;
    } else {
      ++counts[col.GetValue(r).ToString()];
    }
  }
  if (counts.size() > max_distinct) {
    out.distinct = max_distinct + 1;
    return out;
  }
  out.distinct = counts.size();
  out.ranked.assign(counts.begin(), counts.end());
  std::stable_sort(out.ranked.begin(), out.ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  return out;
}

/// The selections each column is counted over: all rows, every third row
/// and a seeded random subset.
std::vector<SelectionVector> Selections(size_t rows, uint64_t seed) {
  std::vector<uint32_t> third, random;
  Rng rng(seed);
  for (uint32_t r = 0; r < rows; ++r) {
    if (r % 3 == 0) third.push_back(r);
    if (rng.NextBernoulli(0.4)) random.push_back(r);
  }
  return {SelectionVector::All(rows), SelectionVector(std::move(third)),
          SelectionVector(std::move(random))};
}

void ExpectCountsMatchOracle(const Column& col, uint64_t seed,
                             const std::string& what) {
  for (const SelectionVector& sel : Selections(col.size(), seed)) {
    for (size_t cap : {size_t{0}, size_t{1}, size_t{10}, kAllValues}) {
      SCOPED_TRACE(what + ", " + std::to_string(sel.size()) +
                   " rows selected, cap " + std::to_string(cap));
      const ValueCounts expected = CountByRenderingEachCell(col, sel, cap);
      const ValueCounts actual = CountValues(col, sel, cap);
      EXPECT_EQ(actual.count, expected.count);
      EXPECT_EQ(actual.null_count, expected.null_count);
      EXPECT_EQ(actual.distinct, expected.distinct);
      EXPECT_EQ(actual.ranked, expected.ranked);
    }
  }
}

/// A seeded column of `type` with `rows` cells drawn from a domain of
/// `domain` values, about a tenth of them NULL.
Column SeededColumn(DataType type, size_t rows, size_t domain, Rng* rng) {
  Column col(type);
  for (size_t i = 0; i < rows; ++i) {
    if (rng->NextBernoulli(0.1)) {
      col.AppendNull();
      continue;
    }
    const uint64_t v = rng->NextBounded(domain);
    switch (type) {
      case DataType::kDouble:
        col.AppendDouble(static_cast<double>(v) * 0.37 - 5.0);
        break;
      case DataType::kInt64:
        col.AppendInt(static_cast<int64_t>(v) - 3);
        break;
      case DataType::kString:
        col.AppendString("s" + std::to_string(v));
        break;
      case DataType::kBool:
        col.AppendBool(v % 2 == 1);
        break;
    }
  }
  return col;
}

TEST(CountValuesTest, SeededColumnsOfEveryTypeMatchTheOracle) {
  Rng rng(20261018);
  const DataType types[] = {DataType::kDouble, DataType::kInt64,
                            DataType::kString, DataType::kBool};
  for (DataType type : types) {
    for (size_t rows : {0, 1, 2, 9, 64, 65, 200, 3000}) {
      for (size_t domain : {1, 2, 10, 11, 64, 65, 100000}) {
        const Column col = SeededColumn(type, rows, domain, &rng);
        ExpectCountsMatchOracle(col, rng.Next(),
                                std::string(DataTypeName(type)) + " " +
                                    std::to_string(rows) + " rows, domain " +
                                    std::to_string(domain));
      }
    }
  }
}

TEST(CountValuesTest, SpecialDoublesMatchTheOracle) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Distinct bit patterns, several rendering alike under %.6g: 1.0000001
  // and 1.0000002 both render "1", and -0.0 and 0.0 render apart. The
  // column stores both NaNs and both infinities as NULL
  // (Column::AppendDouble).
  const std::vector<double> specials = {nan,  -nan, inf,       -inf,
                                        0.0,  -0.0, 1.0000001, 1.0000002,
                                        1.0,  2.5,  1e300,     -1e-300};
  Rng rng(7);
  // Continuous values before, after and around the specials put them on
  // both sides of the 64-pattern switch; 60 keeps every pattern below it.
  for (size_t continuous : {0, 40, 60, 64, 200, 2000}) {
    for (bool specials_first : {true, false}) {
      Column col(DataType::kDouble);
      auto append_specials = [&] {
        for (size_t i = 0; i < 300; ++i) {
          if (i % 13 == 0) {
            col.AppendNull();
          } else {
            col.AppendDouble(specials[rng.NextBounded(specials.size())]);
          }
        }
      };
      if (specials_first) append_specials();
      for (size_t i = 0; i < continuous; ++i) {
        col.AppendDouble(rng.NextUniform(-100, 100));
      }
      append_specials();
      ExpectCountsMatchOracle(
          col, rng.Next(),
          std::to_string(continuous) + " continuous values, specials " +
              (specials_first ? "first" : "last"));
    }
  }
  // Values that render alike on both sides of the switch: the first 65
  // patterns are 1 + k * 1e-9 (all "1"), then continuous values, then more
  // patterns rendering "1".
  Column alike(DataType::kDouble);
  for (int k = 0; k < 65; ++k) alike.AppendDouble(1.0 + k * 1e-9);
  for (int k = 0; k < 100; ++k) alike.AppendDouble(k * 0.5);
  for (int k = 65; k < 130; ++k) alike.AppendDouble(1.0 + k * 1e-9);
  ExpectCountsMatchOracle(alike, 3, "doubles rendering alike");
}

TEST(CountValuesTest, Int64ExtremesMatchTheOracle) {
  const int64_t values[] = {std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(), -1, 0, 1};
  Column col(DataType::kInt64);
  Rng rng(5);
  for (size_t i = 0; i < 500; ++i) {
    if (i % 7 == 0) {
      col.AppendNull();
    } else {
      col.AppendInt(values[rng.NextBounded(5)]);
    }
  }
  ExpectCountsMatchOracle(col, 9, "int64 extremes");
}

TEST(CountValuesTest, EmptyStringsAndUnselectedEntriesMatchTheOracle) {
  // "" is a value beside NULL, and the gathered column shares a dictionary
  // holding entries none of its rows carry.
  Column col(DataType::kString);
  const char* values[] = {"", "a", "b", "", "zz", "a"};
  for (size_t i = 0; i < 600; ++i) {
    if (i % 5 == 0) {
      col.AppendNull();
    } else {
      col.AppendString(values[i % 6]);
    }
  }
  col.AppendString("only_here");
  ExpectCountsMatchOracle(col, 13, "strings");
  std::vector<uint32_t> without_b;
  for (uint32_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r) || col.StringAt(r) != "b") without_b.push_back(r);
  }
  const Column gathered = col.Take(without_b);
  ASSERT_EQ(gathered.dictionary()->size(), col.dictionary()->size());
  ExpectCountsMatchOracle(gathered, 17, "gathered strings");
}

}  // namespace
}  // namespace blaeu::monet
