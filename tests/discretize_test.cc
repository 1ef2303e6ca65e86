// Unit tests for discretizers.
#include "stats/discretize.h"

#include <gtest/gtest.h>

namespace blaeu::stats {
namespace {

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

}  // namespace
}  // namespace blaeu::stats
