// Unit tests for the exact silhouette coefficient.
#include "stats/silhouette.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"

namespace blaeu::stats {
namespace {

/// Two tight, well-separated blobs along one dimension.
Matrix TwoBlobs(size_t per_blob, double gap, Rng* rng) {
  Matrix data(2 * per_blob, 1);
  for (size_t i = 0; i < per_blob; ++i) {
    data.At(i, 0) = rng->NextGaussian(0.0, 0.3);
    data.At(per_blob + i, 0) = rng->NextGaussian(gap, 0.3);
  }
  return data;
}

std::vector<int> BlobLabels(size_t per_blob) {
  std::vector<int> labels(2 * per_blob, 0);
  for (size_t i = per_blob; i < 2 * per_blob; ++i) labels[i] = 1;
  return labels;
}

/// Row-scan oracle: s(i) from one scan of row i through At(), summing
/// the distances to each cluster in ascending order of the other point.
std::vector<double> RowScanSilhouette(const DistanceMatrix& dist,
                                      const std::vector<int>& labels) {
  const size_t n = labels.size();
  int k = 0;
  for (int l : labels) k = std::max(k, l + 1);
  std::vector<size_t> size(k, 0);
  for (int l : labels) ++size[l];
  std::vector<double> out(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const int li = labels[i];
    if (size[li] <= 1) continue;
    std::vector<double> sums(k, 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (j != i) sums[labels[j]] += dist.At(i, j);
    }
    double a = sums[li] / static_cast<double>(size[li] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (int c = 0; c < k; ++c) {
      if (c != li && size[c] > 0) {
        b = std::min(b, sums[c] / static_cast<double>(size[c]));
      }
    }
    if (!std::isfinite(b)) continue;
    double denom = std::max(a, b);
    out[i] = denom > 0 ? (b - a) / denom : 0.0;
  }
  return out;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(SilhouetteTest, WellSeparatedScoresNearOne) {
  Rng rng(1);
  Matrix data = TwoBlobs(30, 20.0, &rng);
  double s = MeanSilhouetteEuclidean(data, BlobLabels(30));
  EXPECT_GT(s, 0.9);
}

TEST(SilhouetteTest, RandomLabelsScoreNearZeroOrNegative) {
  Rng rng(2);
  Matrix data = TwoBlobs(30, 20.0, &rng);
  std::vector<int> labels(60);
  for (auto& l : labels) l = static_cast<int>(rng.NextBounded(2));
  double s = MeanSilhouetteEuclidean(data, labels);
  EXPECT_LT(s, 0.2);
}

TEST(SilhouetteTest, ValuesBoundedByOne) {
  Rng rng(3);
  Matrix data = TwoBlobs(15, 5.0, &rng);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  std::vector<double> values = SilhouetteValues(dist, BlobLabels(15));
  for (double v : values) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SilhouetteTest, SingletonClusterScoresZero) {
  Matrix data(3, 1);
  data.At(0, 0) = 0;
  data.At(1, 0) = 0.1;
  data.At(2, 0) = 10;
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  std::vector<double> values = SilhouetteValues(dist, {0, 0, 1});
  EXPECT_DOUBLE_EQ(values[2], 0.0);  // singleton convention
}

TEST(SilhouetteTest, SingleClusterScoresZero) {
  Rng rng(4);
  Matrix data = TwoBlobs(10, 5.0, &rng);
  double s = MeanSilhouetteEuclidean(data, std::vector<int>(20, 0));
  EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(SilhouetteTest, ValuesMatchRowScanBitForBit) {
  // SilhouetteValues adds every row to its cluster's sums in one pass, two
  // points per step; every value must still be the double a scan of its
  // own row gives.
  Rng rng(9);
  Matrix data(97, 3);
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t f = 0; f < 3; ++f) data.At(i, f) = rng.NextGaussian();
  }
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  std::vector<int> random(97), singletons(97), one_cluster(97, 0);
  for (size_t i = 0; i < 97; ++i) {
    random[i] = static_cast<int>(rng.NextBounded(5));
    // Clusters 0-2 are large, 3 and 5 are singletons, 4 is empty.
    singletons[i] = static_cast<int>(i % 3);
  }
  singletons[10] = 3;
  singletons[50] = 5;
  for (const auto& labels : {random, singletons, one_cluster}) {
    std::vector<double> got = SilhouetteValues(dist, labels);
    std::vector<double> want = RowScanSilhouette(dist, labels);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(Bits(got[i]), Bits(want[i])) << "point " << i;
    }
  }
}

}  // namespace
}  // namespace blaeu::stats
