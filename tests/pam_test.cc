// Unit tests for PAM (k-medoids).
#include "cluster/pam.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "stats/metrics.h"

namespace blaeu::cluster {
namespace {

using stats::DistanceMatrix;
using stats::Matrix;

/// `k` tight Gaussian blobs along one axis, `per` points each.
Matrix Blobs(size_t k, size_t per, double gap, uint64_t seed,
             std::vector<int>* truth) {
  Rng rng(seed);
  Matrix data(k * per, 2);
  truth->clear();
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < per; ++i) {
      size_t row = c * per + i;
      data.At(row, 0) = rng.NextGaussian(gap * static_cast<double>(c), 0.4);
      data.At(row, 1) = rng.NextGaussian(0.0, 0.4);
      truth->push_back(static_cast<int>(c));
    }
  }
  return data;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Textbook PAM on the rows of `data`, the oracle for Pam(): every
/// distance comes from At(), the BUILD reruns for each k, each SWAP pass
/// scores every (candidate, medoid) pair with its own O(n) scan,
/// O(k (n-k)^2) per pass, and the final assignment computes its distances
/// from the rows. Pairs are tried candidate-major like Pam(), so exact ties
/// resolve alike.
ClusteringResult NaivePam(const Matrix& data, size_t k) {
  const DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  const size_t n = dist.size();
  std::vector<size_t> medoids;
  std::vector<bool> is_medoid(n, false);
  // BUILD: the point with minimal total distance, then the maximal gains.
  std::vector<double> nearest(n, kInf);
  while (medoids.size() < k) {
    size_t best_c = 0;
    double best = medoids.empty() ? kInf : -kInf;
    for (size_t c = 0; c < n; ++c) {
      if (is_medoid[c]) continue;
      double score = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (medoids.empty()) {
          score += dist.At(c, i);
        } else if (nearest[i] - dist.At(c, i) > 0) {
          score += nearest[i] - dist.At(c, i);
        }
      }
      if (medoids.empty() ? score < best : score > best) {
        best = score;
        best_c = c;
      }
    }
    medoids.push_back(best_c);
    is_medoid[best_c] = true;
    for (size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], dist.At(i, best_c));
    }
  }

  // SWAP: apply the best strictly improving exchange until none is left.
  std::vector<double> second(n);
  std::vector<size_t> nearest_idx(n);
  for (size_t iter = 0; iter < 50; ++iter) {  // Pam's cap on SWAP passes
    for (size_t i = 0; i < n; ++i) {
      nearest[i] = second[i] = kInf;
      for (size_t m = 0; m < k; ++m) {
        double d = dist.At(i, medoids[m]);
        if (d < nearest[i]) {
          second[i] = nearest[i];
          nearest[i] = d;
          nearest_idx[i] = m;
        } else if (d < second[i]) {
          second[i] = d;
        }
      }
    }
    double best_delta = -1e-12;
    size_t best_m = 0, best_c = 0;
    for (size_t c = 0; c < n; ++c) {
      if (is_medoid[c]) continue;
      for (size_t m = 0; m < k; ++m) {
        // Cost change of replacing medoids[m] by c.
        double delta = 0.0;
        for (size_t i = 0; i < n; ++i) {
          double d_ic = dist.At(i, c);
          if (nearest_idx[i] == m) {
            delta += std::min(d_ic, second[i]) - nearest[i];
          } else if (d_ic < nearest[i]) {
            delta += d_ic - nearest[i];
          }
        }
        if (delta < best_delta) {
          best_delta = delta;
          best_m = m;
          best_c = c;
        }
      }
    }
    if (best_delta >= -1e-12) break;
    is_medoid[medoids[best_m]] = false;
    medoids[best_m] = best_c;
    is_medoid[best_c] = true;
  }
  std::sort(medoids.begin(), medoids.end());
  return AssignToMedoids(data, medoids);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void ExpectSameClustering(const ClusteringResult& got,
                          const ClusteringResult& want) {
  EXPECT_EQ(got.medoids, want.medoids);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(Bits(got.total_cost), Bits(want.total_cost));
  EXPECT_EQ(Bits(got.medoid_silhouette), Bits(want.medoid_silhouette));
}

/// Points on one axis.
Matrix OnALine(const std::vector<double>& xs) {
  Matrix data(xs.size(), 1);
  for (size_t i = 0; i < xs.size(); ++i) data.At(i, 0) = xs[i];
  return data;
}

TEST(PamTest, RecoversPlantedClusters) {
  std::vector<int> truth;
  Matrix data = Blobs(3, 40, 10.0, 1, &truth);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *Pam(dist, 3);
  EXPECT_EQ(result.num_clusters(), 3u);
  EXPECT_GT(stats::AdjustedRandIndex(result.labels, truth), 0.98);
}

TEST(PamTest, LabelsPointToNearestMedoid) {
  std::vector<int> truth;
  Matrix data = Blobs(2, 30, 8.0, 2, &truth);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *Pam(dist, 2);
  for (size_t i = 0; i < data.rows(); ++i) {
    double assigned = dist.At(i, result.medoids[result.labels[i]]);
    for (size_t m : result.medoids) {
      EXPECT_LE(assigned, dist.At(i, m) + 1e-12);
    }
  }
}

TEST(PamTest, MedoidBelongsToItsOwnCluster) {
  std::vector<int> truth;
  Matrix data = Blobs(3, 20, 6.0, 3, &truth);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *Pam(dist, 3);
  for (size_t m = 0; m < result.medoids.size(); ++m) {
    EXPECT_EQ(result.labels[result.medoids[m]], static_cast<int>(m));
  }
}

TEST(PamTest, CostMatchesLabelAssignment) {
  std::vector<int> truth;
  Matrix data = Blobs(2, 25, 7.0, 4, &truth);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *Pam(dist, 2);
  double cost = 0;
  for (size_t i = 0; i < data.rows(); ++i) {
    cost += dist.At(i, result.medoids[result.labels[i]]);
  }
  EXPECT_NEAR(result.total_cost, cost, 1e-9);
}

TEST(PamTest, SwapImprovesOnBuildForHardInput) {
  // Random points: SWAP should never worsen the BUILD objective. We check
  // against a naive random-medoid assignment instead (strictly worse).
  Rng rng(5);
  Matrix data(60, 3);
  for (size_t i = 0; i < 60; ++i) {
    for (size_t f = 0; f < 3; ++f) data.At(i, f) = rng.NextGaussian();
  }
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *Pam(dist, 4);
  ClusteringResult random = AssignToMedoids(data, {0, 1, 2, 3});
  EXPECT_LE(result.total_cost, random.total_cost + 1e-9);
}

TEST(PamTest, KOneGroupsEverything) {
  std::vector<int> truth;
  Matrix data = Blobs(2, 10, 5.0, 6, &truth);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *Pam(dist, 1);
  EXPECT_EQ(result.num_clusters(), 1u);
  for (int l : result.labels) EXPECT_EQ(l, 0);
}

TEST(PamTest, KEqualsNMakesSingletons) {
  Matrix data(4, 1);
  for (size_t i = 0; i < 4; ++i) data.At(i, 0) = static_cast<double>(i);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *Pam(dist, 4);
  EXPECT_EQ(result.num_clusters(), 4u);
  EXPECT_NEAR(result.total_cost, 0.0, 1e-12);
}

TEST(PamTest, InvalidKRejected) {
  Matrix data(3, 1);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  EXPECT_FALSE(Pam(dist, 0).ok());
  EXPECT_FALSE(Pam(dist, 4).ok());
}

TEST(PamTest, DeterministicOnSameInput) {
  std::vector<int> truth;
  Matrix data = Blobs(3, 30, 6.0, 7, &truth);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto a = *Pam(dist, 3);
  auto b = *Pam(dist, 3);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.medoids, b.medoids);
}

TEST(PamTest, FastSwapMatchesNaiveSwap) {
  // Pam sums each candidate's terms over the matrix rows, two candidates
  // per step, and computes FastPAM1 deltas; the textbook oracle does
  // neither. They must agree exactly: medoids, labels and the bits of the
  // cost and silhouette. CLARA's sub-samples hold 44-52 rows, and an odd n
  // leaves a last candidate to the scalar step.
  for (size_t n : {1, 2, 3, 5, 40, 44, 45, 52, 301}) {
    Rng rng(n);
    Matrix data(n, 3);
    for (size_t i = 0; i < n; ++i) {
      for (size_t f = 0; f < 3; ++f) data.At(i, f) = rng.NextGaussian();
    }
    DistanceMatrix dist = DistanceMatrix::Euclidean(data);
    for (size_t k = 1; k <= 6; ++k) {
      SCOPED_TRACE("n " + std::to_string(n) + " k " + std::to_string(k));
      if (k > n) {
        EXPECT_FALSE(Pam(dist, k).ok());
        continue;
      }
      ExpectSameClustering(*Pam(dist, k), NaivePam(data, k));
    }
  }
}

TEST(PamTest, FastSwapMatchesNaiveSwapOnDuplicateRows) {
  // Four distinct values among 40 points: zero distances everywhere, and
  // for k > 4 duplicate medoids, so nearest and second-nearest medoids
  // tie. Integer coordinates on one axis keep every distance and every
  // sum exact, so exact ties stay ties in both implementations.
  Rng rng(11);
  const double values[] = {0.0, 3.0, 7.0, 20.0};
  Matrix data(40, 1);
  for (size_t i = 0; i < 40; ++i) data.At(i, 0) = values[rng.NextBounded(4)];
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  for (size_t k = 1; k <= 6; ++k) {
    SCOPED_TRACE("k " + std::to_string(k));
    ExpectSameClustering(*Pam(dist, k), NaivePam(data, k));
  }
}

TEST(PamTest, MedoidSilhouetteByHand) {
  struct Case {
    const char* name;
    std::vector<double> xs;
    std::vector<size_t> medoids;
    double want;
  };
  const Case cases[] = {
      // The medoids at 0 and 4 are left out. The point at 1 scores
      // 1 - 1/3; the one at 2 is tied between them (d1 = d2 = 2) and
      // scores 0; the one at 7 scores 1 - 3/7.
      {"medoids left out, a tie", {0, 1, 2, 4, 7}, {0, 3},
       (2.0 / 3.0 + 0.0 + 4.0 / 7.0) / 3.0},
      // Two coincident medoids at 0: the third point there has d2 = 0 and
      // scores 0; the one at 6 scores 1 - 1/6.
      {"coincident medoids", {0, 0, 0, 5, 6}, {0, 1, 3},
       (0.0 + 5.0 / 6.0) / 2.0},
      // k = 1: no second medoid, so every point scores 0.
      {"k = 1", {0, 1, 3}, {1}, 0.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Matrix line = OnALine(c.xs);
    const ClusteringResult assigned = AssignToMedoids(line, c.medoids);
    EXPECT_DOUBLE_EQ(assigned.medoid_silhouette, c.want);
    if (c.medoids.size() == 2) {
      // The tied point goes to the first medoid.
      EXPECT_EQ(assigned.labels, (std::vector<int>{0, 0, 0, 1, 1}));
    }
    // PamSwap returns the assignment of its final medoids over its matrix.
    const ClusteringResult swapped =
        PamSwap(DistanceMatrix::Euclidean(line), c.medoids);
    ExpectSameClustering(swapped, AssignToMedoids(line, swapped.medoids));
  }
}

TEST(ClusterSizesTest, CountsPerLabel) {
  std::vector<size_t> sizes = ClusterSizes({0, 1, 1, 2, 2, 2});
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 2, 3}));
}

}  // namespace
}  // namespace blaeu::cluster
