// Parameterized property sweeps over the storage layer: predicate/selection
// algebra, and the mixed-distance and MI estimators.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "monet/predicate.h"
#include "stats/distance.h"
#include "stats/entropy.h"
#include "workloads/gaussian.h"

namespace blaeu {
namespace {

using monet::DataType;
using monet::Schema;
using monet::SelectionVector;
using monet::TableBuilder;
using monet::TablePtr;
using monet::Value;

/// Random mixed table: one group column (g0..g<k>), one double, one int,
/// with a sprinkle of nulls.
TablePtr RandomTable(size_t rows, size_t groups, double null_rate,
                     uint64_t seed) {
  TableBuilder b(Schema({{"g", DataType::kString},
                         {"x", DataType::kDouble},
                         {"n", DataType::kInt64}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    Value g = Value::Str("g" + std::to_string(rng.NextBounded(groups)));
    Value x = rng.NextBernoulli(null_rate)
                  ? Value::Null()
                  : Value::Double(rng.NextGaussian());
    Value n = Value::Int(rng.NextInt(-50, 50));
    EXPECT_TRUE(b.AppendRow({g, x, n}).ok());
  }
  return *b.Finish();
}

// ---------------------------------------------------------------------------
// Gower distance stays in [0, 1], is symmetric, zero on the diagonal.
// ---------------------------------------------------------------------------

class GowerPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(GowerPropertyTest, MetricAxioms) {
  double nan_rate = GetParam();
  Rng rng(static_cast<uint64_t>(nan_rate * 1000) + 3);
  const size_t n = 40, dims = 5;
  stats::Matrix data(n, dims);
  std::vector<bool> categorical = {false, true, false, true, false};
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < dims; ++f) {
      if (rng.NextBernoulli(nan_rate)) {
        data.At(i, f) = std::numeric_limits<double>::quiet_NaN();
      } else if (categorical[f]) {
        data.At(i, f) = static_cast<double>(rng.NextBounded(4));
      } else {
        data.At(i, f) = rng.NextGaussian();
      }
    }
  }
  stats::GowerDistance gower = stats::GowerDistance::Fit(data, categorical);
  for (size_t i = 0; i < n; i += 3) {
    // Self-distance is 0 unless the row is entirely missing (the documented
    // "no comparable features -> 1" convention).
    bool has_value = false;
    for (size_t f = 0; f < dims; ++f) {
      if (!std::isnan(data.At(i, f))) has_value = true;
    }
    EXPECT_DOUBLE_EQ(gower(data.RowPtr(i), data.RowPtr(i)),
                     has_value ? 0.0 : 1.0);
    for (size_t j = 0; j < n; j += 5) {
      double d_ij = gower(data.RowPtr(i), data.RowPtr(j));
      double d_ji = gower(data.RowPtr(j), data.RowPtr(i));
      EXPECT_DOUBLE_EQ(d_ij, d_ji);
      EXPECT_GE(d_ij, 0.0);
      EXPECT_LE(d_ij, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GowerPropertyTest,
                         ::testing::Values(0.0, 0.1, 0.4, 0.8));

// ---------------------------------------------------------------------------
// Miller-Madow MI: symmetric, bounded by plug-in MI, near zero under
// independence across support sizes.
// ---------------------------------------------------------------------------

class MmMiPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(MmMiPropertyTest, EstimatorProperties) {
  auto [support, n] = GetParam();
  Rng rng(support * 101 + n);
  std::vector<int> xs, ys;
  for (size_t i = 0; i < n; ++i) {
    xs.push_back(static_cast<int>(rng.NextBounded(support)));
    ys.push_back(static_cast<int>(rng.NextBounded(support)));
  }
  double mm_xy = stats::MutualInformationMM(xs, ys);
  double mm_yx = stats::MutualInformationMM(ys, xs);
  EXPECT_NEAR(mm_xy, mm_yx, 1e-9);  // hash-order float summation jitter
  EXPECT_LE(mm_xy, stats::MutualInformation(xs, ys) + 1e-12);
  EXPECT_GE(mm_xy, 0.0);
  // Independent draws: corrected MI should be (near) zero.
  EXPECT_LT(stats::NormalizedMutualInformationMM(xs, ys), 0.05);
  // Perfect dependence survives the correction.
  EXPECT_GT(stats::NormalizedMutualInformationMM(xs, xs), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MmMiPropertyTest,
                         ::testing::Values(std::make_tuple(2, 200),
                                           std::make_tuple(4, 500),
                                           std::make_tuple(8, 1000),
                                           std::make_tuple(16, 2000)));

// ---------------------------------------------------------------------------
// Predicate algebra: Evaluate distributes over selection intersection.
// ---------------------------------------------------------------------------

class PredicatePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PredicatePropertyTest, EvaluateOnEqualsEvaluateIntersect) {
  size_t rows = GetParam();
  TablePtr t = RandomTable(rows, 3, 0.1, rows + 77);
  monet::Conjunction conj;
  conj.Add(monet::Condition::Compare("x", monet::CompareOp::kGt,
                                     Value::Double(0.0)));
  conj.Add(monet::Condition::Compare("n", monet::CompareOp::kLe,
                                     Value::Int(20)));
  // Base: every third row.
  std::vector<uint32_t> base_rows;
  for (uint32_t r = 0; r < rows; r += 3) base_rows.push_back(r);
  SelectionVector base(base_rows);
  auto on_base = *conj.EvaluateOn(*t, base);
  auto full = *conj.Evaluate(*t);
  EXPECT_EQ(on_base, full.Intersect(base));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PredicatePropertyTest,
                         ::testing::Values(30, 100, 500));

}  // namespace
}  // namespace blaeu
