// LOFAR exploration: the paper's large-scale demo scenario (§4.2).
//
// A 200,000-row radio-source catalog ("100,000s of tuples and several
// dozens variables"). At this scale the mapping engine must stay at
// interaction time, which exercises the paper's two levers: multi-scale
// sampling and CLARA. This example reports the latency of every action.
//
// Run:  ./lofar_explore [rows]

#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "core/navigation.h"
#include "core/render.h"
#include "workloads/lofar.h"

using namespace blaeu;

int main(int argc, char** argv) {
  workloads::LofarSpec spec;
  if (argc > 1) spec.rows = static_cast<size_t>(std::atoi(argv[1]));

  Timer timer;
  auto data = workloads::MakeLofar(spec);
  std::printf("LOFAR catalog: %zu sources x %zu columns (generated in %.2f s)\n\n",
              data.table->num_rows(), data.table->num_columns(),
              timer.ElapsedSeconds());

  core::SessionOptions options;
  options.themes.dependency.sample_rows = 3000;
  options.map.sample_size = 2000;  // "a few thousand samples"

  timer.Reset();
  auto session_or = core::Session::Start(data.table, "lofar", options);
  if (!session_or.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 session_or.status().ToString().c_str());
    return 1;
  }
  core::Session session = std::move(session_or).ValueOrDie();
  std::printf("[latency] themes + initial map: %.0f ms\n\n",
              timer.ElapsedMillis());
  std::printf("%s\n", core::RenderThemeList(session.themes()).c_str());

  // Map the flux/spectral theme: it should recover the source classes.
  int flux_theme = -1;
  for (const core::Theme& t : session.themes().themes) {
    for (const std::string& name : t.names) {
      if (name == "spectral_index") flux_theme = t.id;
    }
  }
  if (flux_theme >= 0) {
    timer.Reset();
    if (session.SelectTheme(static_cast<size_t>(flux_theme)).ok()) {
      std::printf("[latency] map over the flux theme: %.0f ms  (%s on %zu "
                  "sampled tuples of %zu)\n\n",
                  timer.ElapsedMillis(),
                  session.current().map.algorithm.c_str(),
                  session.current().map.sample_size,
                  session.current().map.total_tuples);
    }
  }
  std::printf("%s\n", core::RenderMap(session.current().map).c_str());

  // How do the detected regions align with the true source classes?
  auto highlight = session.Highlight("source_class");
  if (highlight.ok()) {
    std::printf("%s\n", core::RenderHighlight(*highlight).c_str());
  }

  // Interactive drilling: zoom twice, timing each step.
  for (int step = 0; step < 2; ++step) {
    int biggest = -1;
    size_t best = 0;
    for (int leaf : session.current().map.LeafIds()) {
      if (session.current().map.region(leaf).tuple_count > best) {
        best = session.current().map.region(leaf).tuple_count;
        biggest = leaf;
      }
    }
    if (biggest < 0) break;
    timer.Reset();
    if (!session.Zoom(biggest).ok()) break;
    std::printf("[latency] zoom #%d into region %d (%zu tuples): %.0f ms\n",
                step + 1, biggest, session.current().selection.size(),
                timer.ElapsedMillis());
  }
  std::printf("\nFinal query:\n  %s\n\n",
              session.CurrentQuery().ToSql().c_str());
  std::printf("%s", core::RenderBreadcrumbs(session).c_str());
  return 0;
}
