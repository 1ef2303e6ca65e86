// Cross-cutting coverage: option combinations the per-module suites don't
// reach (alternative dependency measures in theme detection, Gower-encoded
// sessions, CLARA with explicit sample sizes, importances surfaced through
// maps).
#include <gtest/gtest.h>

#include "cluster/clara.h"
#include "core/map_builder.h"
#include "core/navigation.h"
#include "core/theme.h"
#include "stats/distance.h"
#include "stats/metrics.h"
#include "tree/cart.h"
#include "workloads/gaussian.h"
#include "workloads/hollywood.h"

namespace blaeu {
namespace {

TEST(ThemeMeasureTest, PearsonMeasureRecoversLinearThemes) {
  auto data = workloads::MakeTwoThemeMixture(600, 4, 3, 3, 11);
  core::ThemeOptions opt;
  opt.dependency.measure = stats::DependencyMeasure::kAbsPearson;
  auto themes = *core::DetectThemes(*data.table, opt);
  EXPECT_EQ(themes.size(), 2u);
  for (const core::Theme& t : themes.themes) {
    std::set<char> prefixes;
    for (const std::string& name : t.names) prefixes.insert(name[0]);
    EXPECT_EQ(prefixes.size(), 1u);
  }
}

TEST(ThemeMeasureTest, SpearmanMeasureWorksToo) {
  auto data = workloads::MakeTwoThemeMixture(400, 3, 2, 2, 12);
  core::ThemeOptions opt;
  opt.dependency.measure = stats::DependencyMeasure::kAbsSpearman;
  auto themes = *core::DetectThemes(*data.table, opt);
  EXPECT_GE(themes.size(), 2u);
}

TEST(GowerSessionTest, EndToEndWithGowerEncoding) {
  workloads::MixtureSpec spec;
  spec.rows = 500;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  spec.null_rate = 0.15;  // plenty of missing values
  auto data = workloads::MakeGaussianMixture(spec);
  core::SessionOptions opt;
  opt.map.sample_size = 500;
  opt.map.preprocess.encoding = core::CategoricalEncoding::kGower;
  auto session_or = core::Session::Start(data.table, "gower", opt);
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  core::Session s = std::move(session_or).ValueOrDie();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_FALSE(leaves.empty());
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  ASSERT_TRUE(s.Rollback().ok());
}

TEST(ClaraOptionsTest, ExplicitSampleSizeHonored) {
  workloads::MixtureSpec spec;
  spec.rows = 2000;
  spec.num_clusters = 3;
  spec.dims = 3;
  auto data = workloads::MakeGaussianMixture(spec);
  stats::Matrix features(2000, 3);
  for (size_t r = 0; r < 2000; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      features.At(r, c) = data.table->column(c)->doubles()[r];
    }
  }
  auto dist_fn = [&](size_t i, size_t j) {
    return stats::EuclideanDistance(features.RowPtr(i), features.RowPtr(j),
                                    3);
  };
  cluster::ClaraOptions opt;
  opt.sample_size = 200;  // much larger than the 40+2k default
  opt.num_samples = 2;
  auto result = *cluster::Clara(2000, dist_fn, 3, opt);
  EXPECT_GT(
      stats::AdjustedRandIndex(result.labels, data.truth.row_clusters),
      0.95);
}

TEST(MapOptionsTest, FixedKOverridesSweep) {
  workloads::MixtureSpec spec;
  spec.rows = 400;
  spec.num_clusters = 3;
  spec.dims = 3;
  auto data = workloads::MakeGaussianMixture(spec);
  for (size_t k : {2, 5}) {
    core::MapOptions opt;
    opt.fixed_k = k;
    auto map = *core::BuildMap(*data.table, opt);
    EXPECT_EQ(map.num_clusters, k);
  }
}

TEST(MapOptionsTest, MonteCarloThresholdSwitchesScoring) {
  workloads::MixtureSpec spec;
  spec.rows = 900;
  spec.num_clusters = 3;
  spec.dims = 3;
  auto data = workloads::MakeGaussianMixture(spec);
  core::MapOptions mc;
  mc.sample_size = 900;
  mc.monte_carlo_threshold = 100;  // forces MC scoring
  auto map_mc = *core::BuildMap(*data.table, mc);
  core::MapOptions exact = mc;
  exact.monte_carlo_threshold = 100000;  // forces exact scoring
  auto map_exact = *core::BuildMap(*data.table, exact);
  // Both find the planted structure.
  EXPECT_EQ(map_mc.num_clusters, 3u);
  EXPECT_EQ(map_exact.num_clusters, 3u);
}

TEST(ImportanceTest, MapSplitsTrackImportantColumns) {
  // Train the description tree directly and confirm the split columns of
  // the resulting map carry the importance mass.
  auto data = workloads::MakeHollywood();
  core::MapOptions opt;
  opt.sample_size = 900;
  opt.fixed_k = 2;
  auto map = *core::BuildMap(*data.table, opt);
  // Every internal region's edge references a column of the active set.
  for (const core::MapRegion& r : map.regions) {
    if (r.parent < 0) continue;
    for (const auto& cond : r.edge.conditions()) {
      EXPECT_NE(std::find(map.active_columns.begin(),
                          map.active_columns.end(), cond.column),
                map.active_columns.end())
          << cond.column;
    }
  }
}

TEST(SessionOptionsTest, SmallSampleStillCountsWholeTable) {
  // 10,000 rows > 4 x sample_size: the sampler narrows the selection before
  // sampling, and the counts still cover every row.
  workloads::MixtureSpec spec;
  spec.rows = 10000;
  spec.num_clusters = 2;
  spec.dims = 3;
  auto data = workloads::MakeGaussianMixture(spec);
  core::SessionOptions opt;
  opt.map.sample_size = 500;
  auto session = *core::Session::Start(data.table, "ms", opt);
  EXPECT_EQ(session.current().map.total_tuples, 10000u);
  // Zoom still works at scale.
  std::vector<int> leaves = session.current().map.LeafIds();
  ASSERT_TRUE(session.Zoom(leaves[0]).ok());
}

}  // namespace
}  // namespace blaeu
