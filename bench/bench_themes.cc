// Experiment F1a / F2: theme detection.
//
// (1) Latency of the dependency matrix + graph partitioning as the column
//     count grows (the OECD table has 378 columns; "Blaeu must cluster
//     millions of tuples on hundreds of columns at interaction time").
// (2) Emits the Figure 2 dependency graph (DOT) for the OECD subset.

#include <cstdio>
#include <fstream>

#include "common/timer.h"
#include "core/render.h"
#include "core/theme.h"
#include "monet/table.h"
#include "stats/metrics.h"
#include "workloads/oecd.h"

using namespace blaeu;

namespace {

/// NMI between detected column themes and planted ones.
double ThemeRecovery(const core::ThemeSet& themes,
                     const workloads::Dataset& data) {
  std::vector<int> detected, truth;
  for (const core::Theme& t : themes.themes) {
    for (size_t col : t.columns) {
      detected.push_back(t.id);
      truth.push_back(data.truth.column_themes[col]);
    }
  }
  return stats::ClusteringNMI(detected, truth);
}

void LatencySweep() {
  std::printf("== F1a: theme detection latency vs #columns "
              "(6823 rows, MI on 2000 sampled rows) ==\n");
  std::printf("%10s %12s %12s %10s %12s\n", "columns", "dep_ms",
              "partition_ms", "themes", "recovery_nmi");
  for (size_t cols : {25, 50, 100, 200, 375}) {
    workloads::OecdSpec spec;
    spec.indicator_columns = cols;
    auto data = workloads::MakeOecd(spec);

    core::ThemeOptions opt;
    opt.dependency.sample_rows = 2000;
    opt.max_themes = 12;

    // Time the dependency matrix alone, then the full detection.
    Timer t1;
    auto dep = stats::DependencyMatrix(*data.table, opt.dependency);
    double dep_ms = t1.ElapsedMillis();
    if (!dep.ok()) continue;

    Timer t2;
    auto themes = core::DetectThemes(*data.table, opt);
    double total_ms = t2.ElapsedMillis();
    if (!themes.ok()) continue;
    std::printf("%10zu %12.1f %12.1f %10zu %12.3f\n", cols + 3, dep_ms,
                total_ms - dep_ms < 0 ? 0.0 : total_ms - dep_ms,
                themes->size(), ThemeRecovery(*themes, data));
  }
  std::printf("\n");
}

void EmitFigure2() {
  workloads::OecdSpec spec;
  spec.rows = 3000;
  spec.indicator_columns = 9;  // just the named Figure 2 columns
  auto data = workloads::MakeOecd(spec);
  core::ThemeOptions opt;
  opt.max_themes = 6;
  auto themes = core::DetectThemes(*data.table, opt);
  if (!themes.ok()) return;
  const char* path = "/tmp/blaeu_figure2_dependency.dot";
  std::ofstream out(path);
  out << core::DependencyGraphToDot(*themes, 0.2);
  std::printf("== F2: dependency graph over the Figure 2 columns ==\n");
  std::printf("vertices=%zu strong_edges=%zu dot=%s\n",
              themes->graph.num_vertices(), themes->graph.CountEdges(0.2),
              path);
  // Also print the within/between structure the figure shows.
  for (const core::Theme& t : themes->themes) {
    std::printf("  theme %d (cohesion %.2f): %s\n", t.id, t.cohesion,
                t.Label(6).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Blaeu bench: theme detection (F1a, F2)\n\n");
  LatencySweep();
  EmitFigure2();
  return 0;
}
