// Unit tests for theme detection (vertical clustering).
#include "core/theme.h"

#include <gtest/gtest.h>

#include <set>

#include "workloads/gaussian.h"
#include "workloads/oecd.h"

namespace blaeu::core {
namespace {

TEST(ThemeTest, RecoversTwoPlantedThemes) {
  auto data = workloads::MakeTwoThemeMixture(800, 4, 3, 3, /*seed=*/1);
  ThemeOptions opt;
  opt.max_themes = 5;
  auto themes = *DetectThemes(*data.table, opt);
  ASSERT_EQ(themes.size(), 2u);
  // Each detected theme must be exactly one planted column group.
  for (const Theme& theme : themes.themes) {
    std::set<char> prefixes;
    for (const std::string& name : theme.names) {
      prefixes.insert(name[0]);  // 'a' or 'b'
    }
    EXPECT_EQ(prefixes.size(), 1u) << "theme mixes column groups";
    EXPECT_EQ(theme.columns.size(), 4u);
  }
}

TEST(ThemeTest, CohesionSortedDescending) {
  auto data = workloads::MakeTwoThemeMixture(600, 4, 3, 4, 2);
  auto themes = *DetectThemes(*data.table);
  for (size_t i = 1; i < themes.size(); ++i) {
    EXPECT_GE(themes.theme(i - 1).cohesion, themes.theme(i).cohesion);
  }
  for (const Theme& t : themes.themes) {
    EXPECT_GE(t.cohesion, 0.0);
    EXPECT_LE(t.cohesion, 1.0);
  }
}

TEST(ThemeTest, GraphHasOneVertexPerNonKeyColumn) {
  auto data = workloads::MakeTwoThemeMixture(400, 3, 2, 2, 3);
  auto themes = *DetectThemes(*data.table);
  EXPECT_EQ(themes.dependency.size(), 6u);
  EXPECT_EQ(themes.graph_columns.size(), 6u);
}

TEST(ThemeTest, MedoidColumnBelongsToTheme) {
  auto data = workloads::MakeTwoThemeMixture(500, 4, 3, 3, 4);
  auto themes = *DetectThemes(*data.table);
  for (const Theme& t : themes.themes) {
    EXPECT_NE(std::find(t.columns.begin(), t.columns.end(), t.medoid_column),
              t.columns.end());
  }
}

TEST(ThemeTest, KeyColumnsExcluded) {
  workloads::MixtureSpec spec;
  spec.rows = 300;
  spec.dims = 4;
  spec.with_id = true;
  auto data = workloads::MakeGaussianMixture(spec);
  auto themes = *DetectThemes(*data.table);
  for (const Theme& t : themes.themes) {
    for (const std::string& name : t.names) {
      EXPECT_NE(name, "row_id");
    }
  }
}

TEST(ThemeTest, TinyTablesYieldSingleTheme) {
  workloads::MixtureSpec spec;
  spec.rows = 100;
  spec.dims = 2;
  auto data = workloads::MakeGaussianMixture(spec);
  auto themes = *DetectThemes(*data.table);
  EXPECT_EQ(themes.size(), 1u);
  EXPECT_EQ(themes.theme(0).columns.size(), 2u);
}

TEST(ThemeTest, ThemeLabelTruncates) {
  Theme t;
  t.names = {"a", "b", "c", "d", "e"};
  std::string label = t.Label(3);
  EXPECT_NE(label.find("a, b, c"), std::string::npos);
  EXPECT_NE(label.find("+2"), std::string::npos);
}

TEST(ThemeTest, EveryColumnAssignedExactlyOnce) {
  auto data = workloads::MakeTwoThemeMixture(500, 5, 3, 3, 5);
  auto themes = *DetectThemes(*data.table);
  std::set<size_t> seen;
  size_t total = 0;
  for (const Theme& t : themes.themes) {
    for (size_t c : t.columns) {
      seen.insert(c);
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total);  // no duplicates
  EXPECT_EQ(total, 10u);          // all columns covered
}

TEST(ThemeTest, OecdLaborColumnsShareATheme) {
  // Scaled-down OECD: the named labor lead indicators must co-occur.
  workloads::OecdSpec spec;
  spec.rows = 1200;
  spec.indicator_columns = 40;
  auto data = workloads::MakeOecd(spec);
  ThemeOptions opt;
  opt.dependency.sample_rows = 800;
  opt.max_themes = 10;
  auto themes = *DetectThemes(*data.table, opt);
  auto find_theme = [&](const std::string& column) -> int {
    for (const Theme& t : themes.themes) {
      for (const std::string& name : t.names) {
        if (name == column) return t.id;
      }
    }
    return -1;
  };
  int unemp = find_theme("unemployment_rate");
  int lt_unemp = find_theme("long_term_unemployment_rate");
  int female = find_theme("female_unemployment_rate");
  ASSERT_GE(unemp, 0);
  EXPECT_EQ(unemp, lt_unemp);
  EXPECT_EQ(unemp, female);
}

}  // namespace
}  // namespace blaeu::core
