// Unit tests for the column dependency measure (the Figure 2 edge weights).
#include "stats/column_dependency.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "monet/table.h"

namespace blaeu::stats {
namespace {

using monet::DataType;
using monet::Schema;
using monet::TableBuilder;
using monet::TablePtr;
using monet::Value;

/// Builds a table with: x uniform; y = x^2 (nonlinear dependence);
/// z independent noise; cat a category tracking sign(x).
TablePtr DependencyTable(size_t n, uint64_t seed) {
  TableBuilder b(Schema({{"x", DataType::kDouble},
                         {"y", DataType::kDouble},
                         {"z", DataType::kDouble},
                         {"cat", DataType::kString}}));
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double x = rng.NextUniform(-3.0, 3.0);
    EXPECT_TRUE(b.AppendRow({Value::Double(x), Value::Double(x * x),
                             Value::Double(rng.NextGaussian()),
                             Value::Str(x > 0 ? "pos" : "neg")})
                    .ok());
  }
  return *b.Finish();
}

/// Pearson correlation of two equal-length sequences: the linear
/// measure MI is compared against.
double Pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  const double n = static_cast<double>(xs.size());
  double mean_x = 0, mean_y = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mean_x += xs[i];
    mean_y += ys[i];
  }
  mean_x /= n;
  mean_y /= n;
  double cov = 0, var_x = 0, var_y = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - mean_x) * (ys[i] - mean_y);
    var_x += (xs[i] - mean_x) * (xs[i] - mean_x);
    var_y += (ys[i] - mean_y) * (ys[i] - mean_y);
  }
  return cov / std::sqrt(var_x * var_y);
}

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}

TEST(EncodeTest, CategoricalDictionaryCoding) {
  auto t = DependencyTable(50, 1);
  std::vector<uint32_t> codes =
      EncodeColumnDiscrete(*t->column(3), AllRows(50), 8);
  for (uint32_t c : codes) EXPECT_LE(c, 1u);
}

TEST(EncodeTest, NullsGetOwnCode) {
  monet::Column col(DataType::kDouble);
  col.AppendDouble(1);
  col.AppendNull();
  col.AppendDouble(2);
  std::vector<uint32_t> codes = EncodeColumnDiscrete(col, {0, 1, 2}, 4);
  EXPECT_NE(codes[1], codes[0]);
  EXPECT_NE(codes[1], codes[2]);
}

TEST(DependencyTest, NonlinearDependenceDetectedByMI) {
  auto t = DependencyTable(2000, 2);
  DependencyOptions all_rows;
  all_rows.sample_rows = 0;
  auto dep = *DependencyMatrix(*t, all_rows);
  EXPECT_GT(dep[0][1], 0.5);   // y = x^2 strongly dependent
  EXPECT_LT(dep[0][2], 0.15);  // noise independent
  EXPECT_GT(dep[0][3], 0.3);   // mixed types: cat tracks sign(x)
}

TEST(DependencyTest, PearsonMissesNonlinearMIFinds) {
  // The paper's reason for choosing MI: sensitivity to non-linear
  // relationships. y = x^2 on symmetric x has |Pearson| ~ 0.
  auto t = DependencyTable(2000, 3);
  EXPECT_LT(std::fabs(Pearson(t->column(0)->doubles(),
                              t->column(1)->doubles())),
            0.15);
  DependencyOptions all_rows;
  all_rows.sample_rows = 0;
  auto dep = *DependencyMatrix(*t, all_rows);
  EXPECT_GT(dep[0][1], 0.5);
}

TEST(DependencyMatrixTest, SymmetricUnitDiagonal) {
  auto t = DependencyTable(800, 5);
  DependencyOptions opt;
  opt.sample_rows = 400;
  auto dep = *DependencyMatrix(*t, opt);
  ASSERT_EQ(dep.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(dep[i][i], 1.0);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(dep[i][j], dep[j][i]);
      EXPECT_GE(dep[i][j], 0.0);
      EXPECT_LE(dep[i][j], 1.0);
    }
  }
  EXPECT_GT(dep[0][1], dep[0][2]);  // x-y beats x-noise
}

TEST(DependencyMatrixTest, SamplingApproximatesFull) {
  auto t = DependencyTable(3000, 6);
  DependencyOptions full;
  full.sample_rows = 0;
  DependencyOptions sampled;
  sampled.sample_rows = 600;
  auto dep_full = *DependencyMatrix(*t, full);
  auto dep_sample = *DependencyMatrix(*t, sampled);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(dep_full[i][j], dep_sample[i][j], 0.12);
    }
  }
}

TEST(DependencyMatrixTest, NaNCellsCountAsNull) {
  // x, x^2 and a category, with 30% of the numeric cells missing: as NaN in
  // one table and as NULL in the other. The column stores a NaN cell as
  // NULL (Column::AppendDouble), so no NaN reaches the cut points and both
  // tables give the same matrix, bit for bit.
  Schema schema({{"x", DataType::kDouble},
                 {"x2", DataType::kDouble},
                 {"cat", DataType::kString}});
  TableBuilder with_nan(schema), with_null(schema);
  Rng rng(9);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < 3000; ++i) {
    const double x = rng.NextUniform(-3.0, 3.0);
    const bool x_missing = rng.NextBernoulli(0.3);
    const bool x2_missing = rng.NextBernoulli(0.3);
    const Value cat = Value::Str(x > 0 ? "pos" : "neg");
    ASSERT_TRUE(with_nan
                    .AppendRow({Value::Double(x_missing ? nan : x),
                                Value::Double(x2_missing ? nan : x * x), cat})
                    .ok());
    ASSERT_TRUE(
        with_null
            .AppendRow({x_missing ? Value::Null() : Value::Double(x),
                        x2_missing ? Value::Null() : Value::Double(x * x),
                        cat})
            .ok());
  }
  auto dep_nan = *DependencyMatrix(**with_nan.Finish());
  auto dep_null = *DependencyMatrix(**with_null.Finish());
  EXPECT_EQ(dep_nan, dep_null);
  EXPECT_GT(dep_nan[0][1], 0.2);
}

TEST(DependencyMatrixTest, EmptyTableFails) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  auto t = *b.Finish();
  DependencyOptions opt;
  EXPECT_FALSE(DependencyMatrix(*t, opt).ok());
}

}  // namespace
}  // namespace blaeu::stats
