// Unit tests for CLARA, the sampling-based PAM used on large selections.
#include "cluster/clara.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "cluster/pam.h"
#include "common/rng.h"
#include "stats/distance.h"
#include "stats/metrics.h"

namespace blaeu::cluster {
namespace {

using stats::Matrix;

Matrix Blobs(size_t k, size_t per, double gap, uint64_t seed,
             std::vector<int>* truth) {
  Rng rng(seed);
  Matrix data(k * per, 2);
  truth->clear();
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < per; ++i) {
      size_t row = c * per + i;
      data.At(row, 0) = rng.NextGaussian(gap * static_cast<double>(c), 0.5);
      data.At(row, 1) = rng.NextGaussian(0.0, 0.5);
      truth->push_back(static_cast<int>(c));
    }
  }
  return data;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(ClaraTest, RecoversPlantedClustersAtScale) {
  std::vector<int> truth;
  Matrix data = Blobs(4, 2500, 12.0, 1, &truth);  // 10k points
  auto result = *Clara(data, 4, 3);
  EXPECT_EQ(result.num_clusters(), 4u);
  EXPECT_GT(stats::AdjustedRandIndex(result.labels, truth), 0.97);
}

TEST(ClaraTest, CostCloseToExactPamOnModerateInput) {
  std::vector<int> truth;
  Matrix data = Blobs(3, 80, 8.0, 2, &truth);  // 240 points: PAM feasible
  stats::DistanceMatrix dist = stats::DistanceMatrix::Euclidean(data);
  auto exact = *Pam(dist, 3);
  auto approx = *Clara(data, 3, 42);
  EXPECT_LE(approx.total_cost, exact.total_cost * 1.10);  // within 10%
}

TEST(ClaraTest, EveryPointAssignedToNearestMedoid) {
  std::vector<int> truth;
  Matrix data = Blobs(2, 500, 9.0, 4, &truth);
  auto dist = [&](size_t i, size_t j) {
    return stats::EuclideanDistance(data.RowPtr(i), data.RowPtr(j),
                                    data.cols());
  };
  auto result = *Clara(data, 2, 42);
  for (size_t i = 0; i < data.rows(); i += 37) {
    double assigned = dist(i, result.medoids[result.labels[i]]);
    for (size_t m : result.medoids) {
      EXPECT_LE(assigned, dist(i, m) + 1e-12);
    }
  }
}

TEST(ClaraTest, DeterministicGivenSeed) {
  std::vector<int> truth;
  Matrix data = Blobs(3, 300, 7.0, 5, &truth);
  auto a = *Clara(data, 3, 77);
  auto b = *Clara(data, 3, 77);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(ClaraTest, SampleSizeDefaultsToKaufmanRousseeuw) {
  // With n smaller than 40+2k CLARA degenerates into exact PAM: still valid.
  std::vector<int> truth;
  Matrix data = Blobs(2, 15, 10.0, 6, &truth);
  auto result = *Clara(data, 2, 42);
  EXPECT_GT(stats::AdjustedRandIndex(result.labels, truth), 0.95);
}

TEST(ClaraTest, WholeSetRunIsPamOnTheDistanceMatrix) {
  // n <= 40 + 2k: the one sub-sample is every row, so Clara is PAM on the
  // rows' distance matrix, its assignment computed from the rows instead
  // of read from the matrix. Both must give the same bits.
  std::vector<int> truth;
  for (size_t n : {5, 17, 41, 44, 45, 52}) {
    Matrix data = Blobs(1, n, 0.0, n, &truth);
    for (size_t k = 1; k <= std::min<size_t>(6, n); ++k) {
      if (40 + 2 * k < n) continue;  // five sub-samples, not the whole set
      SCOPED_TRACE("n " + std::to_string(n) + " k " + std::to_string(k));
      auto clara = *Clara(data, k, 42);
      auto pam = *Pam(stats::DistanceMatrix::Euclidean(data), k);
      EXPECT_EQ(clara.medoids, pam.medoids);
      EXPECT_EQ(clara.labels, pam.labels);
      EXPECT_EQ(Bits(clara.total_cost), Bits(pam.total_cost));
      EXPECT_EQ(Bits(clara.medoid_silhouette), Bits(pam.medoid_silhouette));
    }
  }
}

TEST(ClaraTest, InvalidKRejected) {
  std::vector<int> truth;
  Matrix data = Blobs(1, 5, 1.0, 7, &truth);
  EXPECT_FALSE(Clara(data, 0, 42).ok());
  EXPECT_FALSE(Clara(data, 6, 42).ok());
}

}  // namespace
}  // namespace blaeu::cluster
