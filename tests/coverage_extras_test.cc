// Cross-cutting coverage: option combinations the per-module suites don't
// reach (fixed k in maps, the columns map splits name, small-sample
// sessions).
#include <gtest/gtest.h>

#include "core/map_builder.h"
#include "core/navigation.h"
#include "workloads/gaussian.h"
#include "workloads/hollywood.h"

namespace blaeu {
namespace {

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

TEST(ImportanceTest, MapSplitsTrackImportantColumns) {
  // The description tree splits only on the map's active columns.
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
