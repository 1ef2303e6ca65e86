// Unit tests for external clustering metrics.
#include "stats/metrics.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace blaeu::stats {
namespace {

TEST(AriTest, IdenticalPartitionsScoreOne) {
  std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(a, a), 1.0);
}

TEST(AriTest, RelabeledPartitionsScoreOne) {
  std::vector<int> a = {0, 0, 1, 1, 2, 2};
  std::vector<int> b = {5, 5, 9, 9, 1, 1};  // same partition, new names
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(a, b), 1.0);
}

TEST(AriTest, IndependentPartitionsScoreNearZero) {
  Rng rng(1);
  std::vector<int> a, b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(static_cast<int>(rng.NextBounded(4)));
    b.push_back(static_cast<int>(rng.NextBounded(4)));
  }
  EXPECT_NEAR(AdjustedRandIndex(a, b), 0.0, 0.05);
}

TEST(AriTest, PartialAgreementBetweenZeroAndOne) {
  std::vector<int> a = {0, 0, 0, 1, 1, 1};
  std::vector<int> b = {0, 0, 1, 1, 1, 1};  // one point moved
  double ari = AdjustedRandIndex(a, b);
  EXPECT_GT(ari, 0.0);
  EXPECT_LT(ari, 1.0);
}

TEST(AriTest, DegenerateSinglePartition) {
  std::vector<int> a = {0, 0, 0};
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(a, a), 1.0);
}

}  // namespace
}  // namespace blaeu::stats
