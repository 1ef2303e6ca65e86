// Experiment F1a / F2: theme detection.
//
// (1) Latency of the dependency matrix and its partitioning as the column
//     count grows (the OECD table has 378 columns; "Blaeu must cluster
//     millions of tuples on hundreds of columns at interaction time"), with
//     the options every Session::Start uses. Then DetectThemes on LOFAR and
//     Session::Start on the paper-scale OECD table (6,823 x 378).
// (2) Emits the Figure 2 dependency graph (DOT) for the OECD subset, and
//     counts its strong edges from the theme set's dependency matrix.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/navigation.h"
#include "core/render.h"
#include "core/theme.h"
#include "monet/table.h"
#include "workloads/lofar.h"
#include "workloads/oecd.h"

using namespace blaeu;

namespace {

/// Plug-in entropy (nats) of a map from label to count, over n items.
template <typename Counts>
double Entropy(const Counts& counts, size_t n) {
  double h = 0.0;
  for (const auto& [_, c] : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(n);
    h -= p * std::log(p);
  }
  return h;
}

/// NMI between detected column themes and planted ones, in [0, 1] (sqrt
/// normalization).
double ThemeRecovery(const core::ThemeSet& themes,
                     const workloads::Dataset& data) {
  std::map<int, size_t> detected, planted;
  std::map<std::pair<int, int>, size_t> joint;
  size_t n = 0;
  for (const core::Theme& t : themes.themes) {
    for (size_t col : t.columns) {
      const int truth = data.truth.column_themes[col];
      ++detected[t.id];
      ++planted[truth];
      ++joint[{t.id, truth}];
      ++n;
    }
  }
  const double hd = Entropy(detected, n);
  const double hp = Entropy(planted, n);
  if (hd <= 0.0 || hp <= 0.0) return 0.0;
  return std::clamp((hd + hp - Entropy(joint, n)) / std::sqrt(hd * hp), 0.0,
                    1.0);
}

/// Median and minimum of `reps` timings of `run`, in ms.
template <typename Fn>
std::pair<double, double> TimeMs(size_t reps, Fn run) {
  std::vector<double> ms;
  for (size_t r = 0; r < reps; ++r) {
    Timer t;
    run();
    ms.push_back(t.ElapsedMillis());
  }
  std::sort(ms.begin(), ms.end());
  return {ms[ms.size() / 2], ms.front()};
}

void LatencySweep() {
  const core::ThemeOptions opt;  // what every Session::Start runs
  std::printf("== F1a: theme detection latency vs #columns "
              "(6823 rows, MI on %zu sampled rows) ==\n",
              opt.dependency.sample_rows);
  std::printf("%10s %12s %12s %10s %12s\n", "columns", "dep_ms",
              "partition_ms", "themes", "recovery_nmi");
  for (size_t cols : {25, 50, 100, 200, 375}) {
    workloads::OecdSpec spec;
    spec.indicator_columns = cols;
    auto data = workloads::MakeOecd(spec);

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

/// The two paper-scale opens: theme detection on LOFAR (200,000 x 40) and a
/// whole Session::Start, themes plus the first map, on OECD (6,823 x 378).
void PaperScale() {
  std::printf("== F1a: paper-scale opens (1 thread, median/min of runs) "
              "==\n");
  const workloads::Dataset lofar = workloads::MakeLofar();
  auto [lofar_ms, lofar_min] = TimeMs(7, [&] {
    if (!core::DetectThemes(*lofar.table).ok()) std::abort();
  });
  std::printf("%-34s %9.1f ms  (min %.1f)\n", "DetectThemes lofar 200000x40",
              lofar_ms, lofar_min);
  const workloads::Dataset oecd = workloads::MakeOecd();
  core::SessionOptions options;
  options.map.num_threads = 1;
  auto [oecd_ms, oecd_min] = TimeMs(3, [&] {
    if (!core::Session::Start(oecd.table, "oecd", options).ok()) std::abort();
  });
  std::printf("%-34s %9.1f ms  (min %.1f)\n", "Session::Start oecd 6823x378",
              oecd_ms, oecd_min);
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
  // Strong edges: the column pairs of dependency above 0.2, the ones the
  // DOT file draws.
  const auto& dep = themes->dependency;
  size_t strong = 0;
  for (size_t i = 0; i < dep.size(); ++i) {
    for (size_t j = i + 1; j < dep.size(); ++j) strong += dep[i][j] > 0.2;
  }
  std::printf("== F2: dependency graph over the Figure 2 columns ==\n");
  std::printf("vertices=%zu strong_edges=%zu dot=%s\n", dep.size(), strong,
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
  PaperScale();
  EmitFigure2();
  return 0;
}
