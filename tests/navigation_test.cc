// Unit tests for the navigation session: zoom / project / highlight /
// rollback and the implicit Select-Project queries.
#include "core/navigation.h"

#include <gtest/gtest.h>

#include "workloads/gaussian.h"
#include "workloads/hollywood.h"

namespace blaeu::core {
namespace {

SessionOptions FastOptions() {
  SessionOptions opt;
  opt.map.sample_size = 500;
  opt.map.k_max = 4;
  return opt;
}

Session StartMixtureSession(size_t rows = 600) {
  workloads::MixtureSpec spec;
  spec.rows = rows;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  auto data = workloads::MakeGaussianMixture(spec);
  auto session = Session::Start(data.table, "mixture", FastOptions());
  EXPECT_TRUE(session.ok());
  return std::move(session).ValueOrDie();
}

TEST(SessionTest, StartsWithThemesAndInitialMap) {
  Session s = StartMixtureSession();
  EXPECT_GE(s.themes().size(), 1u);
  EXPECT_EQ(s.history_size(), 1u);
  EXPECT_EQ(s.current().action, "start");
  EXPECT_EQ(s.current().selection.size(), 600u);
  EXPECT_FALSE(s.current().map.regions.empty());
}

TEST(SessionTest, ZoomNarrowsSelection) {
  Session s = StartMixtureSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_FALSE(leaves.empty());
  int target = leaves[0];
  size_t expected = s.current().map.region(target).tuple_count;
  ASSERT_TRUE(s.Zoom(target).ok());
  EXPECT_EQ(s.history_size(), 2u);
  EXPECT_EQ(s.current().selection.size(), expected);
  EXPECT_LT(s.current().selection.size(), 600u);
}

TEST(SessionTest, ZoomOnRootRejected) {
  Session s = StartMixtureSession();
  EXPECT_FALSE(s.Zoom(0).ok());
  EXPECT_EQ(s.history_size(), 1u);  // state unchanged
}

TEST(SessionTest, ZoomOutOfRangeRejected) {
  Session s = StartMixtureSession();
  EXPECT_EQ(s.Zoom(9999).code(), StatusCode::kIndexError);
  EXPECT_EQ(s.Zoom(-5).code(), StatusCode::kIndexError);
}

TEST(SessionTest, RollbackRestoresPreviousState) {
  Session s = StartMixtureSession();
  size_t before = s.current().selection.size();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  ASSERT_TRUE(s.Rollback().ok());
  EXPECT_EQ(s.history_size(), 1u);
  EXPECT_EQ(s.current().selection.size(), before);
  // Rolling back past the initial state fails.
  EXPECT_FALSE(s.Rollback().ok());
}

TEST(SessionTest, RollbackToIndex) {
  Session s = StartMixtureSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  std::vector<int> leaves2 = s.current().map.LeafIds();
  if (!leaves2.empty() &&
      s.current().map.region(leaves2[0]).tuple_count > 0) {
    s.Zoom(leaves2[0]).ok();  // best-effort deeper zoom
  }
  ASSERT_TRUE(s.RollbackTo(0).ok());
  EXPECT_EQ(s.history_size(), 1u);
  EXPECT_FALSE(s.RollbackTo(5).ok());
}

TEST(SessionTest, ProjectSwitchesColumnsKeepsSelection) {
  Session s = StartMixtureSession();
  if (s.themes().size() < 2) GTEST_SKIP() << "single-theme table";
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  size_t selection = s.current().selection.size();
  size_t other = s.current().theme_id == 0 ? 1 : 0;
  ASSERT_TRUE(s.Project(other).ok());
  EXPECT_EQ(s.current().selection.size(), selection);
  EXPECT_EQ(s.current().theme_id, static_cast<int>(other));
}

TEST(SessionTest, HighlightSummarizesEachLeaf) {
  Session s = StartMixtureSession();
  auto highlight = *s.Highlight("group");
  EXPECT_EQ(highlight.column, "group");
  EXPECT_EQ(highlight.regions.size(), s.current().map.LeafIds().size());
  size_t total = 0;
  for (const RegionHighlight& r : highlight.regions) {
    total += r.tuple_count;
    EXPECT_EQ(r.tuple_count, s.current().map.region(r.region_id).tuple_count)
        << "leaf " << r.region_id;
    EXPECT_FALSE(r.examples.empty());
  }
  EXPECT_EQ(total, s.current().selection.size());
}

TEST(SessionTest, HighlightUnknownColumnFails) {
  Session s = StartMixtureSession();
  EXPECT_EQ(s.Highlight("ghost").status().code(), StatusCode::kKeyError);
}

TEST(SessionTest, CurrentQueryReflectsNavigation) {
  Session s = StartMixtureSession();
  monet::SelectProjectQuery q0 = s.CurrentQuery();
  EXPECT_EQ(q0.table_name, "mixture");
  EXPECT_TRUE(q0.where.empty());
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  monet::SelectProjectQuery q1 = s.CurrentQuery();
  EXPECT_FALSE(q1.where.empty());
  EXPECT_NE(q1.ToSql().find("WHERE"), std::string::npos);
}

TEST(SessionTest, QueryRoundTripsThroughCatalog) {
  // C6: executing the implicit query reproduces the session's selection.
  Session s = StartMixtureSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  monet::Catalog catalog;
  workloads::MixtureSpec spec;
  spec.rows = 600;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  auto data = workloads::MakeGaussianMixture(spec);  // same seed: same table
  catalog.RegisterOrReplace("mixture", data.table);
  auto result = *s.CurrentQuery().Execute(catalog);
  EXPECT_EQ(result->num_rows(), s.current().selection.size());
  EXPECT_EQ(result->num_columns(), s.current().columns.size());
}

TEST(SessionTest, InspectReturnsRegionTuples) {
  Session s = StartMixtureSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  auto rows = *s.Inspect(leaves[0], 5);
  EXPECT_LE(rows->num_rows(), 5u);
  EXPECT_GT(rows->num_rows(), 0u);
  EXPECT_EQ(rows->num_columns(), s.table().num_columns());
}

TEST(SessionTest, SelectThemePushesState) {
  Session s = StartMixtureSession();
  size_t history = s.history_size();
  ASSERT_TRUE(s.SelectTheme(0).ok());
  EXPECT_EQ(s.history_size(), history + 1);
  EXPECT_FALSE(s.SelectTheme(99).ok());
}

TEST(SessionTest, EmptyTableRejected) {
  monet::TableBuilder b(monet::Schema({{"x", monet::DataType::kDouble}}));
  auto table = *b.Finish();
  EXPECT_FALSE(Session::Start(table, "empty", FastOptions()).ok());
}

TEST(SessionTest, ZoomChainsAccumulateWhere) {
  Session s = StartMixtureSession(1200);
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  size_t where1 = s.current().where.size();
  EXPECT_GT(where1, 0u);
  std::vector<int> leaves2 = s.current().map.LeafIds();
  for (int leaf : leaves2) {
    if (s.current().map.region(leaf).tuple_count >= 10) {
      ASSERT_TRUE(s.Zoom(leaf).ok());
      EXPECT_GT(s.current().where.size(), where1);
      break;
    }
  }
}

TEST(SessionTest, HollywoodSessionEndToEnd) {
  auto data = workloads::MakeHollywood();
  auto session = Session::Start(data.table, "hollywood", FastOptions());
  ASSERT_TRUE(session.ok());
  Session s = std::move(session).ValueOrDie();
  EXPECT_GE(s.themes().size(), 2u);
  auto highlight = s.Highlight("genre");
  ASSERT_TRUE(highlight.ok());
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_FALSE(leaves.empty());
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  ASSERT_TRUE(s.Rollback().ok());
}

}  // namespace
}  // namespace blaeu::core
