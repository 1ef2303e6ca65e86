// Parameterized property sweeps across the clustering / silhouette / map
// invariants (TEST_P style, per the repo's testing conventions).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <tuple>

#include "cluster/clara.h"
#include "cluster/kselect.h"
#include "cluster/pam.h"
#include "common/rng.h"
#include "core/map_builder.h"
#include "monet/csv.h"
#include "stats/metrics.h"
#include "stats/silhouette.h"
#include "workloads/gaussian.h"

namespace blaeu {
namespace {

using cluster::Pam;
using stats::DistanceMatrix;
using stats::Matrix;

// ---------------------------------------------------------------------------
// PAM invariants over (n, k, dims).
// ---------------------------------------------------------------------------

class PamPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(PamPropertyTest, Invariants) {
  auto [n, k, dims] = GetParam();
  Rng rng(n * 131 + k * 17 + dims);
  Matrix data(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < dims; ++f) {
      data.At(i, f) = rng.NextGaussian();
    }
  }
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  auto result = *Pam(dist, k);

  // 1. Exactly k medoids, all distinct, all in range.
  EXPECT_EQ(result.medoids.size(), k);
  std::set<size_t> medoid_set(result.medoids.begin(), result.medoids.end());
  EXPECT_EQ(medoid_set.size(), k);
  for (size_t m : result.medoids) EXPECT_LT(m, n);

  // 2. Labels in range and consistent with nearest-medoid assignment.
  ASSERT_EQ(result.labels.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_GE(result.labels[i], 0);
    ASSERT_LT(result.labels[i], static_cast<int>(k));
    double assigned = dist.At(i, result.medoids[result.labels[i]]);
    for (size_t m : result.medoids) {
      EXPECT_LE(assigned, dist.At(i, m) + 1e-9);
    }
  }

  // 3. Every medoid labels itself.
  for (size_t m = 0; m < k; ++m) {
    EXPECT_EQ(result.labels[result.medoids[m]], static_cast<int>(m));
  }

  // 4. Cost is the sum of assigned distances.
  double cost = 0;
  for (size_t i = 0; i < n; ++i) {
    cost += dist.At(i, result.medoids[result.labels[i]]);
  }
  EXPECT_NEAR(result.total_cost, cost, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PamPropertyTest,
    ::testing::Values(std::make_tuple(20, 2, 2), std::make_tuple(50, 3, 4),
                      std::make_tuple(80, 5, 2), std::make_tuple(120, 4, 8),
                      std::make_tuple(40, 8, 3), std::make_tuple(30, 1, 5)));

// ---------------------------------------------------------------------------
// Silhouette bounds under random labelings.
// ---------------------------------------------------------------------------

class SilhouettePropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(SilhouettePropertyTest, AlwaysWithinBounds) {
  auto [n, k] = GetParam();
  Rng rng(n * 7 + k);
  Matrix data(n, 3);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < 3; ++f) data.At(i, f) = rng.NextGaussian();
  }
  std::vector<int> labels(n);
  for (auto& l : labels) l = static_cast<int>(rng.NextBounded(k));
  DistanceMatrix dist = DistanceMatrix::Euclidean(data);
  std::vector<double> values = stats::SilhouetteValues(dist, labels);
  for (double v : values) {
    EXPECT_GE(v, -1.0 - 1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
  double mean = stats::MeanSilhouette(dist, labels);
  EXPECT_GE(mean, -1.0);
  EXPECT_LE(mean, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SilhouettePropertyTest,
                         ::testing::Values(std::make_tuple(30, 2),
                                           std::make_tuple(60, 3),
                                           std::make_tuple(60, 6),
                                           std::make_tuple(100, 4)));

// ---------------------------------------------------------------------------
// CLARA approximation quality as separation grows.
// ---------------------------------------------------------------------------

class ClaraPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ClaraPropertyTest, RecoversWellSeparatedMixtures) {
  double separation = GetParam();
  workloads::MixtureSpec spec;
  spec.rows = 1500;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.separation = separation;
  spec.seed = static_cast<uint64_t>(separation * 100);
  auto data = workloads::MakeGaussianMixture(spec);
  // Build a feature matrix straight from the numeric columns.
  Matrix features(1500, 4);
  for (size_t r = 0; r < 1500; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      features.At(r, c) = data.table->column(c)->doubles()[r];
    }
  }
  auto result = *cluster::Clara(features, 3, 42);
  double ari =
      stats::AdjustedRandIndex(result.labels, data.truth.row_clusters);
  EXPECT_GT(ari, 0.9) << "separation " << separation;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClaraPropertyTest,
                         ::testing::Values(6.0, 8.0, 12.0));

// ---------------------------------------------------------------------------
// Map regions always form a partition-tree regardless of scale.
// ---------------------------------------------------------------------------

class MapPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(MapPropertyTest, RegionTreeInvariants) {
  auto [rows, k] = GetParam();
  workloads::MixtureSpec spec;
  spec.rows = rows;
  spec.num_clusters = k;
  spec.dims = 3;
  spec.seed = rows + k;
  auto data = workloads::MakeGaussianMixture(spec);
  core::MapOptions opt;
  opt.sample_size = 0;  // exact counts
  opt.k_max = 6;
  auto map = *core::BuildMap(*data.table, opt);

  // Root covers everything; children partition parents; leaf labels valid.
  EXPECT_EQ(map.root().tuple_count, rows);
  for (const core::MapRegion& region : map.regions) {
    if (region.is_leaf()) {
      EXPECT_GE(region.cluster_label, 0);
      EXPECT_LT(region.cluster_label,
                static_cast<int>(map.num_clusters));
      continue;
    }
    size_t child_sum = 0;
    for (int c : region.children) {
      child_sum += map.region(c).tuple_count;
      EXPECT_EQ(map.region(c).parent, region.id);
    }
    EXPECT_EQ(child_sum, region.tuple_count);
  }
  // Depth-first ids: children have larger ids than parents.
  for (const core::MapRegion& region : map.regions) {
    for (int c : region.children) EXPECT_GT(c, region.id);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MapPropertyTest,
                         ::testing::Values(std::make_tuple(200, 2),
                                           std::make_tuple(400, 3),
                                           std::make_tuple(600, 4),
                                           std::make_tuple(300, 5)));

// ---------------------------------------------------------------------------
// CSV round-trips across generated tables of varying shape.
// ---------------------------------------------------------------------------

class CsvRoundTripTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(CsvRoundTripTest, WriteReadIdentity) {
  auto [rows, null_rate] = GetParam();
  workloads::MixtureSpec spec;
  spec.rows = rows;
  spec.dims = 3;
  spec.null_rate = null_rate;
  spec.with_categorical = true;
  spec.with_id = true;
  spec.seed = rows + static_cast<uint64_t>(null_rate * 100);
  auto data = workloads::MakeGaussianMixture(spec);

  std::ostringstream out;
  ASSERT_TRUE(monet::WriteCsv(*data.table, out).ok());
  auto reread = *monet::ReadCsv(out.str());
  ASSERT_EQ(reread->num_rows(), data.table->num_rows());
  ASSERT_EQ(reread->num_columns(), data.table->num_columns());
  for (size_t r = 0; r < rows; r += 7) {
    for (size_t c = 0; c < data.table->num_columns(); ++c) {
      monet::Value original = data.table->GetValue(r, c);
      monet::Value round = reread->GetValue(r, c);
      if (original.is_null()) {
        EXPECT_TRUE(round.is_null());
      } else if (original.type() == monet::DataType::kDouble) {
        // Doubles go through %.6g formatting: compare loosely.
        EXPECT_NEAR(original.AsDouble(), round.AsDouble(),
                    std::abs(original.AsDouble()) * 1e-5 + 1e-9);
      } else {
        EXPECT_EQ(original.ToString(), round.ToString());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CsvRoundTripTest,
                         ::testing::Values(std::make_tuple(50, 0.0),
                                           std::make_tuple(120, 0.1),
                                           std::make_tuple(200, 0.3)));

// ---------------------------------------------------------------------------
// k-selection recovers the planted k across mixture sizes.
// ---------------------------------------------------------------------------

class KSelectPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KSelectPropertyTest, FindsPlantedK) {
  auto [planted_k, rows] = GetParam();
  workloads::MixtureSpec spec;
  spec.rows = rows;
  spec.num_clusters = planted_k;
  spec.dims = 4;
  spec.separation = 10.0;
  spec.seed = planted_k * 1000 + rows;
  auto data = workloads::MakeGaussianMixture(spec);
  Matrix features(rows, 4);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      features.At(r, c) = data.table->column(c)->doubles()[r];
    }
  }
  DistanceMatrix dist = DistanceMatrix::Euclidean(features);
  auto result = *cluster::SelectKWithPam(dist, 7);
  EXPECT_EQ(result.best_k, planted_k);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KSelectPropertyTest,
                         ::testing::Values(std::make_tuple(2, 150),
                                           std::make_tuple(3, 150),
                                           std::make_tuple(4, 200),
                                           std::make_tuple(5, 250)));

}  // namespace
}  // namespace blaeu
