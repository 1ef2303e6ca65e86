// Unit tests for the terminal / JSON / DOT renderers.
#include "core/render.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/explorer.h"
#include "workloads/gaussian.h"
#include "workloads/hollywood.h"

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

/// Asserts the dependency graph of `table`'s themes at min weights 0 and
/// 0.2, their JSON, and each theme's cohesion bit for bit.
void ExpectThemesPinned(const monet::Table& table, const std::string& dot_all,
                        const std::string& dot_strong, const std::string& json,
                        const std::vector<uint64_t>& cohesion_bits) {
  auto themes = DetectThemes(table);
  ASSERT_TRUE(themes.ok()) << themes.status().ToString();
  EXPECT_EQ(DependencyGraphToDot(*themes, 0.0), dot_all);
  EXPECT_EQ(DependencyGraphToDot(*themes, 0.2), dot_strong);
  EXPECT_EQ(ThemesToJson(*themes), json);
  ASSERT_EQ(themes->size(), cohesion_bits.size());
  for (size_t t = 0; t < themes->size(); ++t) {
    uint64_t bits;
    std::memcpy(&bits, &themes->theme(t).cohesion, sizeof bits);
    EXPECT_EQ(bits, cohesion_bits[t]) << "theme " << t;
  }
}

TEST(RenderTest, DependencyGraphAndThemesArePinned) {
  // Vertices are the non-key columns in table order, filled by theme id;
  // an edge joins u < v when its weight is above the min weight, its pen
  // width is 0.5 + 4 w to 3 digits and its label w to 2 digits.
  {
    SCOPED_TRACE("two-theme mixture");
    ExpectThemesPinned(
        *workloads::MakeTwoThemeMixture(600, 4, 3, 4, 2).table,
        R"(graph dependency {
  node [style=filled, shape=box];
  n0 [label="a0", fillcolor=lightyellow];
  n1 [label="a1", fillcolor=lightyellow];
  n2 [label="a2", fillcolor=lightyellow];
  n3 [label="a3", fillcolor=lightyellow];
  n4 [label="b0", fillcolor=lightblue];
  n5 [label="b1", fillcolor=lightblue];
  n6 [label="b2", fillcolor=lightblue];
  n7 [label="b3", fillcolor=lightblue];
  n0 -- n1 [penwidth=1.01, label="0.13"];
  n0 -- n2 [penwidth=0.633, label="0.033"];
  n0 -- n3 [penwidth=0.713, label="0.053"];
  n0 -- n4 [penwidth=0.503, label="0.00071"];
  n0 -- n6 [penwidth=0.51, label="0.0025"];
  n0 -- n7 [penwidth=0.51, label="0.0025"];
  n1 -- n2 [penwidth=1.14, label="0.16"];
  n1 -- n3 [penwidth=1.1, label="0.15"];
  n1 -- n5 [penwidth=0.508, label="0.0021"];
  n1 -- n6 [penwidth=0.51, label="0.0024"];
  n1 -- n7 [penwidth=0.501, label="0.00029"];
  n2 -- n3 [penwidth=1.06, label="0.14"];
  n2 -- n4 [penwidth=0.515, label="0.0037"];
  n3 -- n4 [penwidth=0.507, label="0.0018"];
  n3 -- n5 [penwidth=0.511, label="0.0027"];
  n3 -- n7 [penwidth=0.524, label="0.006"];
  n4 -- n5 [penwidth=0.923, label="0.11"];
  n4 -- n6 [penwidth=0.699, label="0.05"];
  n4 -- n7 [penwidth=0.633, label="0.033"];
  n5 -- n6 [penwidth=1.43, label="0.23"];
  n5 -- n7 [penwidth=1.4, label="0.23"];
  n6 -- n7 [penwidth=1.36, label="0.22"];
}
)",
        R"(graph dependency {
  node [style=filled, shape=box];
  n0 [label="a0", fillcolor=lightyellow];
  n1 [label="a1", fillcolor=lightyellow];
  n2 [label="a2", fillcolor=lightyellow];
  n3 [label="a3", fillcolor=lightyellow];
  n4 [label="b0", fillcolor=lightblue];
  n5 [label="b1", fillcolor=lightblue];
  n6 [label="b2", fillcolor=lightblue];
  n7 [label="b3", fillcolor=lightblue];
  n5 -- n6 [penwidth=1.43, label="0.23"];
  n5 -- n7 [penwidth=1.4, label="0.23"];
  n6 -- n7 [penwidth=1.36, label="0.22"];
}
)",
        R"({"silhouette":0.125917704388,"themes":[)"
        R"({"id":0,"cohesion":0.143800969923,"columns":["b0","b1","b2","b3"]},)"
        R"({"id":1,"cohesion":0.110732851618,"columns":["a0","a1","a2","a3"]}]})",
        {0x3fc26811f779e8e3ull, 0x3fbc58fcf84b2ebdull});
  }
  {
    // film_id and title are keys, so n0 is genre; a theme of one column
    // has cohesion 0.
    SCOPED_TRACE("hollywood 900");
    ExpectThemesPinned(
        *workloads::MakeHollywood().table,
        R"(graph dependency {
  node [style=filled, shape=box];
  n0 [label="genre", fillcolor=lightpink];
  n1 [label="studio", fillcolor=lightgreen];
  n2 [label="year", fillcolor=lavender];
  n3 [label="budget_musd", fillcolor=lightyellow];
  n4 [label="domestic_gross_musd", fillcolor=lightblue];
  n5 [label="worldwide_gross_musd", fillcolor=lightblue];
  n6 [label="profitability", fillcolor=wheat];
  n7 [label="rt_critics", fillcolor=lightcyan];
  n8 [label="audience_score", fillcolor=mistyrose];
  n9 [label="theaters", fillcolor=lightyellow];
  n0 -- n1 [penwidth=0.508, label="0.002"];
  n0 -- n2 [penwidth=0.504, label="0.00094"];
  n0 -- n3 [penwidth=0.769, label="0.067"];
  n0 -- n4 [penwidth=0.701, label="0.05"];
  n0 -- n5 [penwidth=0.692, label="0.048"];
  n0 -- n6 [penwidth=0.58, label="0.02"];
  n0 -- n7 [penwidth=0.679, label="0.045"];
  n0 -- n8 [penwidth=0.622, label="0.03"];
  n0 -- n9 [penwidth=0.763, label="0.066"];
  n1 -- n3 [penwidth=0.506, label="0.0015"];
  n1 -- n4 [penwidth=0.501, label="0.00027"];
  n1 -- n6 [penwidth=0.504, label="0.00091"];
  n1 -- n7 [penwidth=0.513, label="0.0033"];
  n1 -- n8 [penwidth=0.502, label="0.00052"];
  n1 -- n9 [penwidth=0.52, label="0.005"];
  n2 -- n3 [penwidth=0.512, label="0.0031"];
  n2 -- n5 [penwidth=0.506, label="0.0015"];
  n2 -- n9 [penwidth=0.512, label="0.003"];
  n3 -- n4 [penwidth=1.65, label="0.29"];
  n3 -- n5 [penwidth=1.69, label="0.3"];
  n3 -- n6 [penwidth=1.1, label="0.15"];
  n3 -- n7 [penwidth=1.22, label="0.18"];
  n3 -- n8 [penwidth=1.12, label="0.16"];
  n3 -- n9 [penwidth=1.83, label="0.33"];
  n4 -- n5 [penwidth=3.23, label="0.68"];
  n4 -- n6 [penwidth=1.26, label="0.19"];
  n4 -- n7 [penwidth=0.846, label="0.086"];
  n4 -- n8 [penwidth=0.834, label="0.084"];
  n4 -- n9 [penwidth=1.34, label="0.21"];
  n5 -- n6 [penwidth=1.35, label="0.21"];
  n5 -- n7 [penwidth=0.887, label="0.097"];
  n5 -- n8 [penwidth=0.852, label="0.088"];
  n5 -- n9 [penwidth=1.36, label="0.22"];
  n6 -- n7 [penwidth=0.973, label="0.12"];
  n6 -- n8 [penwidth=1.19, label="0.17"];
  n6 -- n9 [penwidth=1.09, label="0.15"];
  n7 -- n8 [penwidth=1.27, label="0.19"];
  n7 -- n9 [penwidth=1.39, label="0.22"];
  n8 -- n9 [penwidth=1.28, label="0.19"];
}
)",
        R"(graph dependency {
  node [style=filled, shape=box];
  n0 [label="genre", fillcolor=lightpink];
  n1 [label="studio", fillcolor=lightgreen];
  n2 [label="year", fillcolor=lavender];
  n3 [label="budget_musd", fillcolor=lightyellow];
  n4 [label="domestic_gross_musd", fillcolor=lightblue];
  n5 [label="worldwide_gross_musd", fillcolor=lightblue];
  n6 [label="profitability", fillcolor=wheat];
  n7 [label="rt_critics", fillcolor=lightcyan];
  n8 [label="audience_score", fillcolor=mistyrose];
  n9 [label="theaters", fillcolor=lightyellow];
  n3 -- n4 [penwidth=1.65, label="0.29"];
  n3 -- n5 [penwidth=1.69, label="0.3"];
  n3 -- n9 [penwidth=1.83, label="0.33"];
  n4 -- n5 [penwidth=3.23, label="0.68"];
  n4 -- n9 [penwidth=1.34, label="0.21"];
  n5 -- n6 [penwidth=1.35, label="0.21"];
  n5 -- n9 [penwidth=1.36, label="0.22"];
  n7 -- n9 [penwidth=1.39, label="0.22"];
}
)",
        R"({"silhouette":0.134786744913,"themes":[)"
        R"({"id":0,"cohesion":0.682337199715,)"
        R"("columns":["domestic_gross_musd","worldwide_gross_musd"]},)"
        R"({"id":1,"cohesion":0.333209647965,)"
        R"("columns":["budget_musd","theaters"]},)"
        R"({"id":2,"cohesion":0,"columns":["genre"]},)"
        R"({"id":3,"cohesion":0,"columns":["studio"]},)"
        R"({"id":4,"cohesion":0,"columns":["year"]},)"
        R"({"id":5,"cohesion":0,"columns":["profitability"]},)"
        R"({"id":6,"cohesion":0,"columns":["rt_critics"]},)"
        R"({"id":7,"cohesion":0,"columns":["audience_score"]}]})",
        {0x3fe5d5b4d2b3e962ull, 0x3fd5534e8f2e2846ull, 0, 0, 0, 0, 0, 0});
  }
}

TEST(RenderTest, DotEscapesQuotesAndBackslashesInLabels) {
  // A '"' or '\' in a column name takes a backslash inside its DOT label.
  using monet::DataType;
  using monet::Value;
  monet::TableBuilder b(monet::Schema({{"rate \"pct\"", DataType::kDouble},
                                       {"a\\b", DataType::kDouble},
                                       {"genre", DataType::kString}}));
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Double(i % 3),
                             Value::Double(i % 3 + 0.5 * (i % 2)),
                             Value::Str(i % 3 ? "Drama" : "Children's")})
                    .ok());
  }
  auto themes = DetectThemes(**b.Finish());
  ASSERT_TRUE(themes.ok()) << themes.status().ToString();
  const std::string dot = DependencyGraphToDot(*themes, 0.0);
  EXPECT_NE(dot.find(R"(n0 [label="rate \"pct\"", )"), std::string::npos)
      << dot;
  EXPECT_NE(dot.find(R"(n1 [label="a\\b", )"), std::string::npos) << dot;
  EXPECT_NE(dot.find(R"(n2 [label="genre", )"), std::string::npos) << dot;
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
