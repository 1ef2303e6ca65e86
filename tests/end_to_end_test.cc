// Integration tests: whole-pipeline runs reproducing the paper's
// navigation scenarios (Figure 1 on the OECD data, the Hollywood tour).
#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/render.h"
#include "monet/csv.h"
#include "stats/metrics.h"
#include "workloads/hollywood.h"
#include "workloads/oecd.h"

#include <cstdio>
#include <sstream>

namespace blaeu::core {
namespace {

TEST(EndToEndTest, Figure1ScenarioOnOecd) {
  // Scaled-down OECD keeps the test under a few seconds while preserving
  // the Figure 1 structure.
  workloads::OecdSpec spec;
  spec.rows = 1500;
  spec.indicator_columns = 30;
  auto data = workloads::MakeOecd(spec);

  SessionOptions opt;
  opt.themes.dependency.sample_rows = 700;
  opt.themes.max_themes = 10;
  opt.map.sample_size = 700;
  auto session_or = Session::Start(data.table, "oecd", opt);
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  Session session = std::move(session_or).ValueOrDie();

  // Figure 1a: themes exist; find the labor theme (contains the long-hours
  // column).
  int labor_theme = -1;
  for (const Theme& t : session.themes().themes) {
    for (const std::string& name : t.names) {
      if (name == "pct_employees_working_long_hours") labor_theme = t.id;
    }
  }
  ASSERT_GE(labor_theme, 0) << "labor theme not detected";

  // Figure 1b: map over the labor theme splits on interpretable columns.
  ASSERT_TRUE(session.SelectTheme(static_cast<size_t>(labor_theme)).ok());
  const DataMap& map = session.current().map;
  EXPECT_GE(map.LeafIds().size(), 2u);
  EXPECT_GT(map.tree_fidelity, 0.75);

  // Figure 1c: zoom into the largest leaf and highlight countries.
  int biggest = -1;
  size_t best_count = 0;
  for (int leaf : map.LeafIds()) {
    if (map.region(leaf).tuple_count > best_count) {
      best_count = map.region(leaf).tuple_count;
      biggest = leaf;
    }
  }
  ASSERT_GE(biggest, 0);
  ASSERT_TRUE(session.Zoom(biggest).ok());
  auto highlight = *session.Highlight("country");
  EXPECT_FALSE(highlight.regions.empty());
  for (const RegionHighlight& r : highlight.regions) {
    EXPECT_FALSE(r.examples.empty());
  }

  // Figure 1d: project onto another theme (any other), selection kept.
  size_t other = labor_theme == 0 ? 1 : 0;
  size_t selection = session.current().selection.size();
  ASSERT_TRUE(session.Project(other).ok());
  EXPECT_EQ(session.current().selection.size(), selection);

  // Rollback all the way: reversibility.
  while (session.history_size() > 1) {
    ASSERT_TRUE(session.Rollback().ok());
  }
  EXPECT_EQ(session.current().selection.size(), 1500u);
}

/// The share of work-life-balance countries (Switzerland, Norway, Canada,
/// ...) in the highest-income leaf of a 3-cluster map over the Figure 1
/// columns, built with map seed `seed`.
double HighIncomeLeafShare(const workloads::Dataset& data, uint64_t seed) {
  MapOptions opt;
  opt.sample_size = 1000;
  opt.fixed_k = 3;
  opt.seed = seed;
  auto map = *BuildMap(
      *data.table, monet::SelectionVector::All(data.table->num_rows()),
      {"pct_employees_working_long_hours", "average_income_kusd",
       "time_dedicated_to_leisure_hours"},
      opt);
  // Find the leaf with the highest mean income and check its countries.
  auto income = *data.table->ColumnByName("average_income_kusd");
  auto country = *data.table->ColumnByName("country");
  double best_mean = -1;
  monet::SelectionVector best_rows;
  for (int leaf : map.LeafIds()) {
    auto rows = *map.region(leaf).predicate.Evaluate(*data.table);
    if (rows.size() < 20) continue;
    double sum = 0;
    size_t n = 0;
    for (uint32_t r : rows.rows()) {
      if (!income->IsNull(r)) {
        sum += income->doubles()[r];
        ++n;
      }
    }
    if (n > 0 && sum / n > best_mean) {
      best_mean = sum / n;
      best_rows = rows;
    }
  }
  if (best_rows.empty()) return 0.0;
  size_t rich_profile = 0;
  for (uint32_t r : best_rows.rows()) {
    const std::string& c = country->StringAt(r);
    if (c == "Switzerland" || c == "Norway" || c == "Canada" ||
        c == "Netherlands" || c == "Denmark" || c == "Sweden" ||
        c == "Iceland" || c == "Luxembourg") {
      ++rich_profile;
    }
  }
  return static_cast<double>(rich_profile) / best_rows.size();
}

TEST(EndToEndTest, HighIncomeRegionContainsTheRightCountries) {
  // The demo's payoff: Switzerland/Norway/Canada surface in the
  // low-hours / high-income region. One map draw can miss it, so this
  // asserts a rate over map seeds 1-60: the work-life-balance countries
  // dominate the high-income region on at least 54 of them.
  workloads::OecdSpec spec;
  spec.rows = 2000;
  spec.indicator_columns = 12;
  auto data = workloads::MakeOecd(spec);
  int passes = 0;
  double share_sum = 0.0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const double share = HighIncomeLeafShare(data, seed);
    share_sum += share;
    if (share > 0.5) ++passes;
  }
  std::printf("payoff on %d of 60 map seeds, mean share %.3f\n", passes,
              share_sum / 60);
  EXPECT_GE(passes, 54);
}

TEST(EndToEndTest, HollywoodViaCsvRoundTrip) {
  // Full Figure 4 flow: CSV file -> store -> themes -> map -> query.
  auto data = workloads::MakeHollywood();
  std::ostringstream csv;
  ASSERT_TRUE(monet::WriteCsv(*data.table, csv).ok());
  auto reread = *monet::ReadCsv(csv.str());
  ASSERT_EQ(reread->num_rows(), 900u);
  ASSERT_EQ(reread->num_columns(), 12u);

  Explorer explorer;
  ASSERT_TRUE(explorer.LoadTable(reread, "movies").ok());
  auto* session = *explorer.OpenSession("movies");
  EXPECT_GE(session->themes().size(), 2u);

  // The two gross columns are mechanically coupled (domestic is a share of
  // worldwide) and must land in the same theme.
  int domestic_theme = -1, gross_theme = -1;
  for (const Theme& t : session->themes().themes) {
    for (const std::string& name : t.names) {
      if (name == "domestic_gross_musd") domestic_theme = t.id;
      if (name == "worldwide_gross_musd") gross_theme = t.id;
    }
  }
  ASSERT_GE(domestic_theme, 0);
  EXPECT_EQ(domestic_theme, gross_theme);

  // Zoom somewhere and emit the implicit SQL.
  std::vector<int> leaves = session->current().map.LeafIds();
  ASSERT_FALSE(leaves.empty());
  ASSERT_TRUE(session->Zoom(leaves[0]).ok());
  std::string sql = session->CurrentQuery().ToSql();
  EXPECT_NE(sql.find("SELECT"), std::string::npos);
  EXPECT_NE(sql.find("\"movies\""), std::string::npos);
  EXPECT_NE(sql.find("WHERE"), std::string::npos);
}

TEST(EndToEndTest, MapsQuantizeTheQuerySpace) {
  // §2: every leaf is a discrete refinements alternative; the leaf queries
  // partition the current selection.
  auto data = workloads::MakeHollywood();
  MapOptions opt;
  opt.sample_size = 600;
  auto map = *BuildMap(*data.table, opt);
  std::vector<size_t> covered(900, 0);
  for (int leaf : map.LeafIds()) {
    auto rows = *map.region(leaf).predicate.Evaluate(*data.table);
    for (uint32_t r : rows.rows()) ++covered[r];
  }
  // Rows with NULLs in split columns can fail every SQL predicate (tree
  // routing vs SQL semantics); everything else is covered exactly once.
  size_t exactly_once = 0, more_than_once = 0;
  for (size_t r = 0; r < 900; ++r) {
    if (covered[r] == 1) ++exactly_once;
    if (covered[r] > 1) ++more_than_once;
  }
  EXPECT_EQ(more_than_once, 0u);
  EXPECT_GT(static_cast<double>(exactly_once) / 900.0, 0.9);
}

}  // namespace
}  // namespace blaeu::core
