// Unit tests for the terminal / JSON / DOT renderers.
#include "core/render.h"

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "workloads/gaussian.h"

namespace blaeu::core {
namespace {

struct Fixture {
  workloads::Dataset data;
  ThemeSet themes;
  DataMap map;
};

Fixture MakeFixture() {
  workloads::MixtureSpec spec;
  spec.rows = 400;
  spec.num_clusters = 3;
  spec.dims = 4;
  spec.with_categorical = true;
  Fixture f{workloads::MakeGaussianMixture(spec), {}, {}};
  f.themes = *DetectThemes(*f.data.table);
  MapOptions opt;
  opt.fixed_k = 3;
  f.map = *BuildMap(*f.data.table, opt);
  return f;
}

TEST(RenderTest, ThemeListShowsEveryTheme) {
  Fixture f = MakeFixture();
  std::string text = RenderThemeList(f.themes);
  EXPECT_NE(text.find("Themes ("), std::string::npos);
  for (const Theme& t : f.themes.themes) {
    EXPECT_NE(text.find("[" + std::to_string(t.id) + "]"),
              std::string::npos);
  }
}

TEST(RenderTest, MapShowsRegionsAndCounts) {
  Fixture f = MakeFixture();
  std::string text = RenderMap(f.map);
  EXPECT_NE(text.find("Data map over"), std::string::npos);
  EXPECT_NE(text.find("ALL"), std::string::npos);
  EXPECT_NE(text.find("tuples"), std::string::npos);
  EXPECT_NE(text.find("cluster"), std::string::npos);
  // Every region id appears.
  for (const MapRegion& r : f.map.regions) {
    EXPECT_NE(text.find("[" + std::to_string(r.id) + "]"),
              std::string::npos);
  }
}

TEST(RenderTest, TreemapStripCoversLeaves) {
  Fixture f = MakeFixture();
  std::string text = RenderTreemapStrip(f.map);
  for (int leaf : f.map.LeafIds()) {
    EXPECT_NE(text.find("region " + std::to_string(leaf)),
              std::string::npos);
  }
}

TEST(RenderTest, MapJsonIsWellFormedish) {
  Fixture f = MakeFixture();
  std::string json = MapToJson(f.map);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"regions\":["), std::string::npos);
  EXPECT_NE(json.find("\"silhouette\":"), std::string::npos);
  // Balanced braces/brackets.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(RenderTest, ThemesJsonListsThemes) {
  Fixture f = MakeFixture();
  std::string json = ThemesToJson(f.themes);
  EXPECT_NE(json.find("\"themes\":["), std::string::npos);
  EXPECT_NE(json.find("\"cohesion\":"), std::string::npos);
}

TEST(RenderTest, DependencyGraphDot) {
  Fixture f = MakeFixture();
  std::string dot = DependencyGraphToDot(f.themes, 0.1);
  EXPECT_NE(dot.find("graph dependency"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
}

TEST(RenderTest, HighlightRendering) {
  workloads::MixtureSpec spec;
  spec.rows = 300;
  spec.num_clusters = 2;
  spec.dims = 3;
  spec.with_categorical = true;
  auto data = workloads::MakeGaussianMixture(spec);
  SessionOptions opt;
  opt.map.sample_size = 300;
  auto session = *Session::Start(data.table, "t", opt);
  auto highlight = *session.Highlight("group");
  std::string text = RenderHighlight(highlight);
  EXPECT_NE(text.find("Highlight 'group'"), std::string::npos);
  EXPECT_NE(text.find("region"), std::string::npos);
}

TEST(RenderTest, BreadcrumbsShowHistory) {
  workloads::MixtureSpec spec;
  spec.rows = 300;
  spec.num_clusters = 2;
  spec.dims = 3;
  auto data = workloads::MakeGaussianMixture(spec);
  auto session = *Session::Start(data.table, "t", {});
  std::vector<int> leaves = session.current().map.LeafIds();
  ASSERT_TRUE(session.Zoom(leaves[0]).ok());
  std::string text = RenderBreadcrumbs(session);
  EXPECT_NE(text.find("start"), std::string::npos);
  EXPECT_NE(text.find("zoom("), std::string::npos);
  EXPECT_NE(text.find("*"), std::string::npos);  // current marker
}

TEST(ExplorerTest, LoadAndSession) {
  workloads::MixtureSpec spec;
  spec.rows = 200;
  spec.num_clusters = 2;
  spec.dims = 3;
  auto data = workloads::MakeGaussianMixture(spec);
  Explorer explorer;
  ASSERT_TRUE(explorer.LoadTable(data.table, "mix").ok());
  EXPECT_EQ(explorer.Tables(), (std::vector<std::string>{"mix"}));
  auto* session = *explorer.OpenSession("mix");
  EXPECT_GE(session->themes().size(), 1u);
  EXPECT_TRUE(explorer.CloseSession("mix").ok());
  EXPECT_EQ(explorer.CloseSession("mix").code(), StatusCode::kKeyError);
  EXPECT_FALSE(explorer.OpenSession("ghost").ok());
}

TEST(ExplorerTest, LoadCsvMissingFileFails) {
  Explorer explorer;
  EXPECT_EQ(explorer.LoadCsv("/no/such/file.csv", "x").code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace blaeu::core
