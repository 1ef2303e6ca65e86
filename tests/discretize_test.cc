// Unit tests for discretizers.
#include "stats/discretize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"

namespace blaeu::stats {
namespace {

/// The cut points by a full sort: value i * n / num_bins of the sorted
/// values, duplicates merged, cuts at the maximum dropped.
std::vector<double> FullSortCuts(std::vector<double> values, size_t num_bins) {
  std::vector<double> cuts;
  if (values.empty() || num_bins <= 1) return cuts;
  std::sort(values.begin(), values.end());
  for (size_t i = 1; i < num_bins; ++i) {
    size_t idx = std::min(i * values.size() / num_bins, values.size() - 1);
    if (cuts.empty() || values[idx] > cuts.back()) cuts.push_back(values[idx]);
  }
  while (!cuts.empty() && cuts.back() >= values.back()) cuts.pop_back();
  return cuts;
}

TEST(EqualFrequencyTest, BalancedCounts) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  Discretizer d = Discretizer::EqualFrequency(v, 4);
  EXPECT_EQ(d.num_bins(), 4u);
  int counts[4] = {0, 0, 0, 0};
  for (double x : v) ++counts[d.Bin(x)];
  for (int c : counts) EXPECT_NEAR(c, 25, 2);
}

TEST(EqualFrequencyTest, SkewedDataMergesDuplicateCuts) {
  // 90% of mass at one value: fewer realized bins, none empty-by-design.
  std::vector<double> v(90, 1.0);
  for (int i = 0; i < 10; ++i) v.push_back(2.0 + i);
  Discretizer d = Discretizer::EqualFrequency(v, 5);
  EXPECT_LT(d.num_bins(), 5u);
  EXPECT_GE(d.num_bins(), 2u);
  EXPECT_LT(d.Bin(1.0), d.Bin(11.0));
}

TEST(EqualFrequencyTest, MonotoneBinning) {
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) v.push_back(i * i);  // skewed
  Discretizer d = Discretizer::EqualFrequency(v, 6);
  int prev = -1;
  for (double x : v) {
    int b = d.Bin(x);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(EqualFrequencyTest, CutsMatchAFullSort) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(11);
  std::vector<std::vector<double>> inputs = {
      {}, {7.0}, {2.0, 1.0}, {3.0, 1.0, 2.0}, std::vector<double>(50, 4.5),
      {inf, -inf, 0.0, inf, -inf}, {-inf, 1.0, 2.0, 3.0, 4.0, 5.0, inf}};
  for (size_t trial = 0; trial < 200; ++trial) {
    // Heavy ties: few distinct values, now and then an infinity.
    const size_t n = rng.NextBounded(60);
    const size_t distinct = 1 + rng.NextBounded(8);
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t pick = rng.NextBounded(distinct + 2);
      v.push_back(pick == distinct        ? inf
                  : pick == distinct + 1 ? -inf
                                         : static_cast<double>(pick));
    }
    inputs.push_back(v);
  }
  for (const std::vector<double>& v : inputs) {
    for (size_t bins : {1, 2, 3, 5, 8, 64}) {
      SCOPED_TRACE(::testing::Message() << v.size() << " values, " << bins
                                        << " bins");
      EXPECT_EQ(Discretizer::EqualFrequency(v, bins).cuts(),
                FullSortCuts(v, bins));
    }
  }
}

}  // namespace
}  // namespace blaeu::stats
