// Unit tests for entropy, mutual information and correlations.
#include "stats/entropy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace blaeu::stats {
namespace {

TEST(EntropyTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Entropy({1, 1, 1, 1}), 0.0);
  EXPECT_NEAR(Entropy({0, 1}), std::log(2.0), 1e-12);
  EXPECT_NEAR(Entropy({0, 1, 2, 3}), std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(Entropy({}), 0.0);
}

TEST(JointEntropyTest, IndependentAddsUp) {
  // Perfectly crossed design: H(X,Y) = H(X) + H(Y).
  std::vector<int> xs, ys;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 3; ++y) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  EXPECT_NEAR(JointEntropy(xs, ys), Entropy(xs) + Entropy(ys), 1e-12);
  EXPECT_NEAR(MutualInformation(xs, ys), 0.0, 1e-12);
}

TEST(MutualInformationTest, PerfectDependence) {
  std::vector<int> xs = {0, 1, 2, 0, 1, 2};
  std::vector<int> ys = {5, 7, 9, 5, 7, 9};  // bijection of xs
  EXPECT_NEAR(MutualInformation(xs, ys), Entropy(xs), 1e-12);
  EXPECT_NEAR(NormalizedMutualInformation(xs, ys), 1.0, 1e-12);
}

TEST(MutualInformationTest, NonNegativeAndSymmetric) {
  Rng rng(1);
  std::vector<int> xs, ys;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(static_cast<int>(rng.NextBounded(4)));
    ys.push_back(static_cast<int>(rng.NextBounded(4)));
  }
  double mi_xy = MutualInformation(xs, ys);
  double mi_yx = MutualInformation(ys, xs);
  EXPECT_GE(mi_xy, 0.0);
  EXPECT_NEAR(mi_xy, mi_yx, 1e-12);
  // Independent draws: MI close to 0.
  EXPECT_LT(NormalizedMutualInformation(xs, ys), 0.1);
}

TEST(NmiTest, ConstantColumnScoresZero) {
  std::vector<int> xs = {0, 0, 0, 0};
  std::vector<int> ys = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(NormalizedMutualInformation(xs, ys), 0.0);
}

TEST(NmiTest, NegativeLabelsSupported) {
  // -1 is the NULL code used by column encoding.
  std::vector<int> xs = {-1, 0, 1, -1, 0, 1};
  std::vector<int> ys = {2, 3, 4, 2, 3, 4};
  EXPECT_NEAR(NormalizedMutualInformation(xs, ys), 1.0, 1e-12);
}

TEST(MillerMadowTest, ShrinksIndependentMIToZero) {
  Rng rng(2);
  std::vector<int> xs, ys;
  for (int i = 0; i < 800; ++i) {
    xs.push_back(static_cast<int>(rng.NextBounded(8)));
    ys.push_back(static_cast<int>(rng.NextBounded(8)));
  }
  // Plug-in MI of independent 8x8 variables on 800 samples is visibly
  // positive; the corrected estimator should be near zero and smaller.
  double plugin = MutualInformation(xs, ys);
  double corrected = MutualInformationMM(xs, ys);
  EXPECT_GT(plugin, 0.02);
  EXPECT_LT(corrected, plugin);
  EXPECT_LT(corrected, 0.01);
}

TEST(MillerMadowTest, PreservesStrongDependence) {
  std::vector<int> xs, ys;
  for (int i = 0; i < 600; ++i) {
    xs.push_back(i % 4);
    ys.push_back((i % 4) + 10);
  }
  EXPECT_NEAR(MutualInformationMM(xs, ys), MutualInformation(xs, ys),
              0.02);
  EXPECT_GT(NormalizedMutualInformationMM(xs, ys), 0.95);
}

TEST(MillerMadowTest, NeverNegative) {
  std::vector<int> xs = {0, 1, 0, 1};
  std::vector<int> ys = {2, 2, 3, 3};
  EXPECT_GE(MutualInformationMM(xs, ys), 0.0);
  EXPECT_GE(NormalizedMutualInformationMM(xs, ys), 0.0);
}

}  // namespace
}  // namespace blaeu::stats
