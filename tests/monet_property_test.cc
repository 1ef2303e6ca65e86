// Parameterized property sweeps over the storage layer: predicate/selection
// algebra, and the MI estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "monet/predicate.h"
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
