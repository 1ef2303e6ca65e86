// Unit tests for the session extensions: annotations, detailed highlights,
// scatter views, JSON export and projection suggestions.
#include <gtest/gtest.h>

#include "core/navigation.h"
#include "core/suggest.h"
#include "workloads/gaussian.h"
#include "workloads/hollywood.h"

namespace blaeu::core {
namespace {

Session StartSession() {
  workloads::MixtureSpec spec;
  spec.rows = 500;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  auto data = workloads::MakeGaussianMixture(spec);
  SessionOptions opt;
  opt.map.sample_size = 500;
  auto session = Session::Start(data.table, "mixture", opt);
  EXPECT_TRUE(session.ok());
  return std::move(session).ValueOrDie();
}

TEST(AnnotateTest, AttachAndReplaceNotes) {
  Session s = StartSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Annotate(leaves[0], "interesting cluster").ok());
  EXPECT_EQ(s.annotations().at(leaves[0]), "interesting cluster");
  ASSERT_TRUE(s.Annotate(leaves[0], "revised").ok());
  EXPECT_EQ(s.annotations().at(leaves[0]), "revised");
  EXPECT_EQ(s.annotations().size(), 1u);
}

TEST(AnnotateTest, InvalidRegionRejected) {
  Session s = StartSession();
  EXPECT_EQ(s.Annotate(9999, "x").code(), StatusCode::kIndexError);
}

TEST(AnnotateTest, AnnotationsDiscardedOnRollback) {
  Session s = StartSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  ASSERT_TRUE(s.Annotate(0, "note on zoomed map").ok());
  ASSERT_TRUE(s.Rollback().ok());
  EXPECT_TRUE(s.annotations().empty());
}

TEST(HighlightDetailTest, NumericColumnsGetHistograms) {
  Session s = StartSession();
  auto detail = *s.HighlightDetail("x0", 8);
  EXPECT_TRUE(detail.numeric);
  EXPECT_EQ(detail.regions.size(), s.current().map.LeafIds().size());
  for (const RegionDetail& r : detail.regions) {
    EXPECT_NE(r.rendering.find('#'), std::string::npos);
    EXPECT_NE(r.rendering.find('['), std::string::npos);  // bin ranges
  }
}

TEST(HighlightDetailTest, CategoricalColumnsGetFrequencies) {
  Session s = StartSession();
  auto detail = *s.HighlightDetail("group");
  EXPECT_FALSE(detail.numeric);
  for (const RegionDetail& r : detail.regions) {
    EXPECT_NE(r.rendering.find('g'), std::string::npos);  // g0/g1/g2 labels
  }
}

TEST(HighlightDetailTest, UnknownColumnFails) {
  Session s = StartSession();
  EXPECT_EQ(s.HighlightDetail("ghost").status().code(),
            StatusCode::kKeyError);
}

TEST(ScatterDetailTest, RendersPerRegionGrids) {
  Session s = StartSession();
  auto detail = *s.ScatterDetail("x0", "x1");
  EXPECT_EQ(detail.x_column, "x0");
  for (const RegionDetail& r : detail.regions) {
    EXPECT_NE(r.rendering.find('|'), std::string::npos);
  }
}

TEST(ScatterDetailTest, StringColumnRejected) {
  Session s = StartSession();
  EXPECT_FALSE(s.ScatterDetail("group", "x0").ok());
}

TEST(SessionJsonTest, ExportsStatesAndAnnotations) {
  Session s = StartSession();
  std::vector<int> leaves = s.current().map.LeafIds();
  ASSERT_TRUE(s.Annotate(leaves[0], "note \"quoted\"").ok());
  ASSERT_TRUE(s.Zoom(leaves[0]).ok());
  std::string json = s.ToJson();
  EXPECT_NE(json.find("\"states\":["), std::string::npos);
  EXPECT_NE(json.find("\"action\":\"zoom("), std::string::npos);
  EXPECT_NE(json.find("\"sql\":\"SELECT"), std::string::npos);
  EXPECT_NE(json.find("note \\\"quoted\\\""), std::string::npos);
  // Two states exported.
  EXPECT_NE(json.find("\"index\":1"), std::string::npos);
}

TEST(SuggestTest, RanksThemesByLocalCohesion) {
  // Two themes; zoom guided by theme A's map, then theme B should remain
  // suggestible and every suggestion carries a finite score.
  auto data = workloads::MakeTwoThemeMixture(800, 4, 3, 3, 7);
  SessionOptions opt;
  opt.map.sample_size = 800;
  auto session = *Session::Start(data.table, "two_theme", opt);
  auto suggestions = *SuggestProjections(session);
  ASSERT_GE(suggestions.size(), 2u);
  for (const ProjectionSuggestion& s : suggestions) {
    EXPECT_GE(s.local_cohesion, 0.0);
    EXPECT_LE(s.local_cohesion, 1.0);
  }
  // Sorted by lift descending.
  for (size_t i = 1; i < suggestions.size(); ++i) {
    EXPECT_GE(suggestions[i - 1].lift, suggestions[i].lift);
  }
  std::string text = RenderSuggestions(session, suggestions);
  EXPECT_NE(text.find("Projection suggestions"), std::string::npos);
}

TEST(SuggestTest, SkipsSingletonThemes) {
  auto data = workloads::MakeHollywood();
  SessionOptions opt;
  opt.map.sample_size = 900;
  auto session = *Session::Start(data.table, "movies", opt);
  auto suggestions = *SuggestProjections(session);
  for (const ProjectionSuggestion& s : suggestions) {
    EXPECT_GE(session.themes().theme(s.theme_id).columns.size(), 2u);
  }
}

}  // namespace
}  // namespace blaeu::core
