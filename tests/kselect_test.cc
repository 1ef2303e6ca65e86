// Unit tests for silhouette-driven k selection (paper §3, "Number of
// clusters").
#include "cluster/kselect.h"
#include "cluster/pam.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "stats/distance.h"
#include "stats/silhouette.h"

namespace blaeu::cluster {
namespace {

using stats::DistanceMatrix;
using stats::Matrix;

Matrix PlantedBlobs(size_t k, size_t per, uint64_t seed) {
  Rng rng(seed);
  Matrix data(k * per, 2);
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < per; ++i) {
      size_t row = c * per + i;
      data.At(row, 0) = rng.NextGaussian(12.0 * static_cast<double>(c), 0.6);
      data.At(row, 1) =
          rng.NextGaussian(c % 2 == 0 ? 0.0 : 12.0, 0.6);
    }
  }
  return data;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Medoid silhouette scoring: a caller's own ScoreFn for SweepK, as the
/// map builder scores its CLARA sweep.
double MedoidScore(size_t, const ClusteringResult& result) {
  return result.medoid_silhouette;
}

/// SelectKWithPam's score, restated: the exact mean silhouette, or -1 for a
/// partition with fewer than k non-empty clusters.
ScoreFn ExactScore(const DistanceMatrix& dist) {
  return [&dist](size_t k, const ClusteringResult& result) {
    const std::vector<size_t> sizes = ClusterSizes(result.labels);
    if (sizes.size() != k ||
        std::count(sizes.begin(), sizes.end(), size_t{0}) > 0) {
      return -1.0;
    }
    return stats::MeanSilhouette(dist, result.labels);
  };
}

/// Same k, labels and medoids, bit-equal scores.
void ExpectSameSweep(const KSelectResult& a, const KSelectResult& b) {
  EXPECT_EQ(a.best_k, b.best_k);
  EXPECT_EQ(a.best.labels, b.best.labels);
  EXPECT_EQ(a.best.medoids, b.best.medoids);
  EXPECT_EQ(Bits(a.best_score), Bits(b.best_score));
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(Bits(a.scores[i]), Bits(b.scores[i])) << "candidate " << i;
  }
}

TEST(KSelectTest, RecoversPlantedKThree) {
  Matrix data = PlantedBlobs(3, 40, 1);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *SelectKWithPam(dist, 7);
  EXPECT_EQ(result.best_k, 3u);
  EXPECT_GT(result.best_score, 0.6);
  EXPECT_EQ(result.scores.size(), 6u);  // k = 2..7
}

TEST(KSelectTest, RecoversPlantedKFive) {
  Matrix data = PlantedBlobs(5, 30, 2);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *SelectKWithPam(dist, 8);
  EXPECT_EQ(result.best_k, 5u);
}

TEST(KSelectTest, BestScoreMatchesScoresVector) {
  Matrix data = PlantedBlobs(3, 25, 3);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *SelectKWithPam(dist, 6);
  double max_score = *std::max_element(result.scores.begin(),
                                       result.scores.end());
  EXPECT_DOUBLE_EQ(result.best_score, max_score);
  EXPECT_EQ(result.best_k, 2 + (std::max_element(result.scores.begin(),
                                                 result.scores.end()) -
                                result.scores.begin()));
}

TEST(KSelectTest, MedoidSilhouetteAgreesOnWellSeparatedData) {
  Matrix data = PlantedBlobs(4, 200, 4);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto exact_result = *SelectKWithPam(dist, 6);
  auto medoid_result = *SweepK(
      2, 6, [&](size_t k) { return Pam(dist, k); }, MedoidScore, 1);
  EXPECT_EQ(exact_result.best_k, 4u);
  EXPECT_EQ(medoid_result.best_k, 4u);
}

TEST(KSelectTest, KRangeClampedToN) {
  Matrix data(5, 1);
  for (size_t i = 0; i < 5; ++i) data.At(i, 0) = static_cast<double>(i);
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *SelectKWithPam(dist, 50);  // clamped to n-1 = 4
  EXPECT_EQ(result.scores.size(), 3u);  // k = 2, 3, 4
}

TEST(KSelectTest, TooFewPointsRejected) {
  DistanceMatrix dist(1);
  EXPECT_FALSE(SelectKWithPam(dist, 8).ok());
}

TEST(KSelectTest, SelectKWithPamMatchesOnePamPerK) {
  // SelectKWithPam seeds every k from one BUILD. It must pick exactly what
  // a sweep of one Pam per k under its score picks. A medoid-silhouette or
  // threaded sweep is SweepK
  // with the caller's ScoreFn: seeded from one BUILD that its concurrent k
  // tasks share read-only, it must match the serial one-Pam-per-k sweep
  // too.
  Rng rng(12);
  Matrix noise(260, 3);
  for (size_t i = 0; i < noise.rows(); ++i) {
    for (size_t f = 0; f < 3; ++f) noise.At(i, f) = rng.NextGaussian();
  }
  for (const Matrix& data : {PlantedBlobs(4, 60, 9), noise}) {
    DistanceMatrix dist = DistanceMatrix::Euclidean(data);
    const ClusterFn per_k = [&](size_t k) { return Pam(dist, k); };
    ExpectSameSweep(*SelectKWithPam(dist, 6),
                    *SweepK(2, 6, per_k, ExactScore(dist), 1));

    const ScoreFn score = MedoidScore;
    const std::vector<size_t> build = PamBuild(dist, 6);
    const ClusterFn shared = [&](size_t k) -> Result<ClusteringResult> {
      return PamSwap(dist,
                     std::vector<size_t>(build.begin(), build.begin() + k));
    };
    const KSelectResult serial = *SweepK(2, 6, per_k, score, 1);
    for (size_t threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectSameSweep(*SweepK(2, 6, shared, score, threads), serial);
    }
  }
}

TEST(KSelectTest, SweepKPicksLowestTiedKAndFirstErrorAtAnyThreadCount) {
  // Canned clusterer: k points, one per cluster; canned scores by k.
  const ClusterFn canned = [](size_t k) -> Result<ClusteringResult> {
    ClusteringResult r;
    for (size_t i = 0; i < k; ++i) {
      r.labels.push_back(static_cast<int>(i));
      r.medoids.push_back(i);
    }
    return r;
  };
  const std::vector<double> canned_scores = {0.1, 0.5, 0.2, 0.5, -0.3};
  const ScoreFn score = [&](size_t k, const ClusteringResult&) {
    return canned_scores[k - 2];
  };
  const ClusterFn failing = [&](size_t k) -> Result<ClusteringResult> {
    if (k == 4) return Status::Invalid("k = 4 failed");
    if (k == 6) return Status::Internal("k = 6 failed");
    return canned(k);
  };
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // k = 3 and k = 5 tie on the best score: the lower k wins.
    auto swept = SweepK(2, 6, canned, score, threads);
    ASSERT_TRUE(swept.ok()) << swept.status().ToString();
    EXPECT_EQ(swept->best_k, 3u);
    EXPECT_EQ(swept->best_score, 0.5);
    EXPECT_EQ(swept->best.num_clusters(), 3u);
    EXPECT_EQ(swept->scores, canned_scores);

    // Two k fail: the lower k's status is returned.
    auto failed = SweepK(2, 6, failing, score, threads);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(failed.status().message(), "k = 4 failed");

    // An empty range is rejected before any k runs.
    size_t calls = 0;
    auto empty = SweepK(
        5, 4,
        [&](size_t k) {
          ++calls;
          return canned(k);
        },
        score, threads);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(calls, 0u);
  }
}

}  // namespace
}  // namespace blaeu::cluster
