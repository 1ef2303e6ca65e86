// Parameterized property sweeps over the storage layer: predicate/selection
// algebra, and the MI estimator of the column dependency matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "monet/predicate.h"
#include "stats/column_dependency.h"
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
// Miller-Madow MI, as DependencyMatrix computes it: symmetric, bounded by
// plug-in MI, near zero under independence across support sizes.
// ---------------------------------------------------------------------------

/// Two string columns holding the codes `xs` and `ys`.
TablePtr CodeTable(const std::vector<int>& xs, const std::vector<int>& ys) {
  TableBuilder b(Schema({{"x", DataType::kString}, {"y", DataType::kString}}));
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_TRUE(b.AppendRow({Value::Str("v" + std::to_string(xs[i])),
                             Value::Str("v" + std::to_string(ys[i]))})
                    .ok());
  }
  return *b.Finish();
}

/// Normalized Miller-Madow MI of `xs` and `ys` over all their rows.
double DependencyOf(const std::vector<int>& xs, const std::vector<int>& ys) {
  stats::DependencyOptions all_rows;
  all_rows.sample_rows = 0;
  return (*stats::DependencyMatrix(*CodeTable(xs, ys), all_rows))[0][1];
}

/// Plug-in MI of codes in [0, k), normalized like DependencyMatrix.
double PluginNmi(const std::vector<int>& xs, const std::vector<int>& ys,
                 size_t k) {
  std::vector<size_t> cx(k), cy(k), cxy(k * k);
  for (size_t i = 0; i < xs.size(); ++i) {
    ++cx[xs[i]];
    ++cy[ys[i]];
    ++cxy[xs[i] * k + ys[i]];
  }
  auto entropy = [n = static_cast<double>(xs.size())](
                     const std::vector<size_t>& counts) {
    double h = 0.0;
    for (size_t c : counts) {
      if (c > 0) h -= c / n * std::log(c / n);
    }
    return h;
  };
  const double hx = entropy(cx), hy = entropy(cy);
  return (hx + hy - entropy(cxy)) / std::sqrt(hx * hy);
}

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
  double mm_xy = DependencyOf(xs, ys);
  double mm_yx = DependencyOf(ys, xs);
  EXPECT_NEAR(mm_xy, mm_yx, 1e-12);  // summation order only
  EXPECT_LE(mm_xy, PluginNmi(xs, ys, support) + 1e-12);
  EXPECT_GE(mm_xy, 0.0);
  // Independent draws: corrected MI should be (near) zero.
  EXPECT_LT(mm_xy, 0.05);
  // Perfect dependence survives the correction.
  EXPECT_GT(DependencyOf(xs, xs), 0.9);
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
  conj.Add(monet::Condition::Threshold("x", 0.0, /*negated=*/true));
  conj.Add(monet::Condition::Threshold("n", 20));
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
