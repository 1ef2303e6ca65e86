// Countries and Work: the paper's running example, end to end.
//
// Reproduces every panel of Figure 1 plus Figure 2 on the synthetic OECD
// table (6,823 rows x 378 columns, 31 countries):
//   (F1a) list of themes;
//   (F1b) the data map of the labor-conditions theme;
//   (F1c) zoom into the low-hours / high-income region + highlight the
//         countries living there (expect Switzerland, Norway, Canada, ...);
//   (F1d) project the zoomed selection onto the unemployment theme;
//   (F2)  the dependency graph, the theme set's dependency matrix, as
//         Graphviz DOT (written to /tmp), with its count of strong edges.
//
// Run:  ./countries_work [rows] [indicator_columns]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/timer.h"
#include "core/navigation.h"
#include "core/render.h"
#include "workloads/oecd.h"

using namespace blaeu;

namespace {

int FindThemeWith(const core::ThemeSet& themes, const std::string& column) {
  for (const core::Theme& t : themes.themes) {
    for (const std::string& name : t.names) {
      if (name == column) return t.id;
    }
  }
  return -1;
}

int LargestLeaf(const core::DataMap& map) {
  int best = -1;
  size_t best_count = 0;
  for (int leaf : map.LeafIds()) {
    if (map.region(leaf).tuple_count > best_count) {
      best_count = map.region(leaf).tuple_count;
      best = leaf;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  workloads::OecdSpec spec;  // defaults: 6,823 x 378 as in the paper
  if (argc > 1) spec.rows = static_cast<size_t>(std::atoi(argv[1]));
  if (argc > 2) {
    spec.indicator_columns = static_cast<size_t>(std::atoi(argv[2]));
  }
  std::printf("Generating OECD countries-and-work table (%zu x %zu)...\n",
              spec.rows, spec.indicator_columns + 3);
  auto data = workloads::MakeOecd(spec);

  core::SessionOptions options;
  options.themes.dependency.sample_rows = 2000;
  options.themes.max_themes = 12;
  options.map.sample_size = 2000;  // paper: a few thousand per map

  Timer timer;
  auto session_or = core::Session::Start(data.table, "oecd", options);
  if (!session_or.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 session_or.status().ToString().c_str());
    return 1;
  }
  core::Session session = std::move(session_or).ValueOrDie();
  std::printf("Session ready in %.2f s (themes + first map)\n\n",
              timer.ElapsedSeconds());

  // ----- Figure 1a: the list of themes. ------------------------------------
  std::printf("=== Figure 1a: themes ===\n%s\n",
              core::RenderThemeList(session.themes()).c_str());

  // ----- Figure 2: dependency graph as DOT. --------------------------------
  // The graph is the theme set's dependency matrix; its strong edges are the
  // column pairs of dependency above 0.25, the ones the DOT file draws.
  {
    std::ofstream dot("/tmp/blaeu_oecd_dependency.dot");
    dot << core::DependencyGraphToDot(session.themes(), 0.25);
    const auto& dep = session.themes().dependency;
    size_t strong = 0;
    for (size_t i = 0; i < dep.size(); ++i) {
      for (size_t j = i + 1; j < dep.size(); ++j) strong += dep[i][j] > 0.25;
    }
    std::printf(
        "=== Figure 2: dependency graph written to "
        "/tmp/blaeu_oecd_dependency.dot (%zu vertices, %zu strong edges) "
        "===\n\n",
        dep.size(), strong);
  }

  // ----- Figure 1b: map of the labor-conditions theme. ---------------------
  int labor = FindThemeWith(session.themes(),
                            "pct_employees_working_long_hours");
  if (labor < 0) {
    std::fprintf(stderr, "labor theme not found\n");
    return 1;
  }
  timer.Reset();
  if (Status st = session.SelectTheme(static_cast<size_t>(labor)); !st.ok()) {
    std::fprintf(stderr, "select failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("=== Figure 1b: labor-conditions map (built in %.0f ms) ===\n%s\n",
              timer.ElapsedMillis(),
              core::RenderMap(session.current().map).c_str());
  std::printf("Implicit query: %s\n\n", session.CurrentQuery().ToSql().c_str());

  // ----- Figure 1c: zoom + highlight country names. ------------------------
  int target = LargestLeaf(session.current().map);
  timer.Reset();
  if (Status st = session.Zoom(target); !st.ok()) {
    std::fprintf(stderr, "zoom failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("=== Figure 1c: zoom into region %d (%.0f ms) ===\n%s\n",
              target, timer.ElapsedMillis(),
              core::RenderMap(session.current().map).c_str());
  auto highlight = session.Highlight("country");
  if (highlight.ok()) {
    std::printf("%s\n", core::RenderHighlight(*highlight).c_str());
  }
  std::printf("Implicit query: %s\n\n", session.CurrentQuery().ToSql().c_str());

  // ----- Figure 1d: project onto the unemployment theme. -------------------
  int unemp = FindThemeWith(session.themes(), "unemployment_rate");
  if (unemp >= 0 && unemp != labor) {
    timer.Reset();
    if (session.Project(static_cast<size_t>(unemp)).ok()) {
      std::printf("=== Figure 1d: projection onto unemployment (%.0f ms) ===\n%s\n",
                  timer.ElapsedMillis(),
                  core::RenderMap(session.current().map).c_str());
      auto h2 = session.Highlight("country");
      if (h2.ok()) std::printf("%s\n", core::RenderHighlight(*h2).c_str());
    }
  }

  // ----- Rollback: every action is reversible. ------------------------------
  std::printf("%s\n", core::RenderBreadcrumbs(session).c_str());
  while (session.history_size() > 1) {
    if (!session.Rollback().ok()) break;
  }
  std::printf("Rolled back to the initial state (%zu tuples).\n",
              session.current().selection.size());
  return 0;
}
