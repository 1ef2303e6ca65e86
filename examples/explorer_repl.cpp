// Interactive explorer REPL: the terminal stand-in for Blaeu's web UI
// (Figures 5 and 6). Keyboard-driven navigation over any CSV file or over
// the built-in demo datasets.
//
// Run:  ./explorer_repl [csv_path | hollywood | oecd | lofar]
//
// Commands:
//   themes              list themes (Figure 5)
//   select <i>          map the current selection on theme i
//   map                 redraw the current map (Figure 6)
//   zoom <region>       drill into a region
//   project <i>         re-map the selection on theme i's columns
//   highlight <column>  summarize a column per region
//   detail <column>     per-region histograms / frequency bars
//   scatter <x> <y>     per-region density scatter of two numeric columns
//   annotate <region> <note...>   attach a note to a region
//   suggest             rank themes for the current selection
//   inspect <region>    show sample tuples of a region
//   sql                 print the implicit Select-Project query
//   history             show the breadcrumb trail
//   rollback            undo the last action
//   json                dump the current map as JSON
//   stats               tables, sessions, cache size and metrics (JSON)
//   stats --format=openmetrics      Prometheus text exposition of the metrics
//   stats --format=html [path]      self-contained HTML perf report
//   flightlog [n]       last n flight-recorder events (default: everything)
//   flightlog dump <path>           dump the flight log as JSON to <path>
//   trace <path>        dump a Chrome trace of all spans so far to <path>
//   help                this text
//   quit                exit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include <fstream>

#include "common/string_util.h"
#include "core/explorer.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/atlas.h"
#include "core/report.h"
#include "core/suggest.h"
#include "core/render.h"
#include "monet/csv.h"
#include "workloads/hollywood.h"
#include "workloads/lofar.h"
#include "workloads/oecd.h"

using namespace blaeu;

namespace {

void PrintHelp() {
  std::printf(
      "commands: themes | select <i> | map | zoom <r> | project <i> |\n"
      "          highlight <col> | detail <col> | scatter <x> <y> |\n"
      "          annotate <r> <note> | suggest | atlas | inspect <r> |\n"
      "          sql | history | rollback | json | session |\n"
      "          stats [--format=openmetrics|html [path]] |\n"
      "          flightlog [n] | flightlog dump <path> |\n"
      "          trace <path> | export <dir> | help | quit\n");
}

monet::TablePtr LoadDataset(const std::string& arg, std::string* name) {
  if (arg == "hollywood") {
    *name = "hollywood";
    return workloads::MakeHollywood().table;
  }
  if (arg == "oecd") {
    *name = "oecd";
    return workloads::MakeOecd().table;  // the paper's 6,823 x 378 table
  }
  if (arg == "lofar") {
    workloads::LofarSpec spec;
    spec.rows = 50000;
    *name = "lofar";
    return workloads::MakeLofar(spec).table;
  }
  auto table = monet::ReadCsvFile(arg);
  if (!table.ok()) {
    std::fprintf(stderr, "cannot read '%s': %s\n", arg.c_str(),
                 table.status().ToString().c_str());
    return nullptr;
  }
  *name = "table";
  return *table;
}

}  // namespace

int main(int argc, char** argv) {
  std::string arg = argc > 1 ? argv[1] : "hollywood";
  std::string name;
  monet::TablePtr table = LoadDataset(arg, &name);
  if (table == nullptr) return 1;
  std::printf("Loaded '%s': %zu rows x %zu columns\n", name.c_str(),
              table->num_rows(), table->num_columns());

  // Trace every span of the session (map builds and their stages, cache
  // lookups, k sweeps and CLARA runs); the `trace` command dumps the
  // accumulated spans as a chrome://tracing file.
  obs::Tracer::Global().set_enabled(true);

  core::SessionOptions options;
  options.map.sample_size = 2000;
  core::Explorer explorer(options);
  if (Status st = explorer.LoadTable(table, name); !st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto session_or = explorer.OpenSession(name);
  if (!session_or.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session_or.status().ToString().c_str());
    return 1;
  }
  core::Session& session = **session_or;
  std::printf("%s\n", core::RenderThemeList(session.themes()).c_str());
  std::printf("%s\n", core::RenderMap(session.current().map).c_str());
  PrintHelp();

  std::string line;
  while (true) {
    std::printf("blaeu> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "themes") {
      std::printf("%s", core::RenderThemeList(session.themes()).c_str());
    } else if (cmd == "map") {
      std::printf("%s", core::RenderMap(session.current().map).c_str());
      std::printf("%s",
                  core::RenderTreemapStrip(session.current().map).c_str());
    } else if (cmd == "select" || cmd == "project") {
      size_t idx = 0;
      if (!(in >> idx)) {
        std::printf("usage: %s <theme index>\n", cmd.c_str());
        continue;
      }
      Status st = cmd == "select" ? session.SelectTheme(idx)
                                  : session.Project(idx);
      if (!st.ok()) {
        std::printf("%s\n", st.ToString().c_str());
        continue;
      }
      std::printf("%s", core::RenderMap(session.current().map).c_str());
    } else if (cmd == "zoom") {
      int region = 0;
      if (!(in >> region)) {
        std::printf("usage: zoom <region id>\n");
        continue;
      }
      if (Status st = session.Zoom(region); !st.ok()) {
        std::printf("%s\n", st.ToString().c_str());
        continue;
      }
      std::printf("%s", core::RenderMap(session.current().map).c_str());
    } else if (cmd == "highlight") {
      std::string column;
      if (!(in >> column)) {
        std::printf("usage: highlight <column>\n");
        continue;
      }
      auto h = session.Highlight(column);
      if (!h.ok()) {
        std::printf("%s\n", h.status().ToString().c_str());
        continue;
      }
      std::printf("%s", core::RenderHighlight(*h).c_str());
    } else if (cmd == "inspect") {
      int region = 0;
      if (!(in >> region)) {
        std::printf("usage: inspect <region id>\n");
        continue;
      }
      auto rows = session.Inspect(region, 8);
      if (!rows.ok()) {
        std::printf("%s\n", rows.status().ToString().c_str());
        continue;
      }
      std::printf("%s", (*rows)->ToString(8).c_str());
    } else if (cmd == "detail") {
      std::string column;
      if (!(in >> column)) {
        std::printf("usage: detail <column>\n");
        continue;
      }
      auto d = session.HighlightDetail(column);
      if (!d.ok()) {
        std::printf("%s\n", d.status().ToString().c_str());
        continue;
      }
      for (const core::RegionDetail& r : d->regions) {
        std::printf("-- region %d (%zu tuples) --\n%s", r.region_id,
                    r.tuple_count, r.rendering.c_str());
      }
    } else if (cmd == "scatter") {
      std::string x, y;
      if (!(in >> x >> y)) {
        std::printf("usage: scatter <x column> <y column>\n");
        continue;
      }
      auto d = session.ScatterDetail(x, y);
      if (!d.ok()) {
        std::printf("%s\n", d.status().ToString().c_str());
        continue;
      }
      for (const core::RegionDetail& r : d->regions) {
        std::printf("-- region %d (%zu tuples) --\n%s", r.region_id,
                    r.tuple_count, r.rendering.c_str());
      }
    } else if (cmd == "annotate") {
      int region = 0;
      if (!(in >> region)) {
        std::printf("usage: annotate <region id> <note>\n");
        continue;
      }
      std::string note;
      std::getline(in, note);
      if (Status st = session.Annotate(
              region, std::string(Trim(note))); !st.ok()) {
        std::printf("%s\n", st.ToString().c_str());
        continue;
      }
      std::printf("noted.\n");
    } else if (cmd == "atlas") {
      core::MapOptions opt;
      opt.sample_size = 1000;
      auto atlas = core::BuildAtlas(session.table(),
                                    session.current().selection,
                                    session.themes(), opt);
      if (!atlas.ok()) {
        std::printf("%s\n", atlas.status().ToString().c_str());
        continue;
      }
      std::printf("%s",
                  core::RenderAtlas(*atlas, session.themes()).c_str());
    } else if (cmd == "suggest") {
      auto suggestions = core::SuggestProjections(session);
      if (!suggestions.ok()) {
        std::printf("%s\n", suggestions.status().ToString().c_str());
        continue;
      }
      std::printf("%s",
                  core::RenderSuggestions(session, *suggestions).c_str());
    } else if (cmd == "export") {
      std::string dir;
      if (!(in >> dir)) {
        std::printf("usage: export <existing directory>\n");
        continue;
      }
      if (Status st = core::ExportSessionReport(session, dir); !st.ok()) {
        std::printf("%s\n", st.ToString().c_str());
        continue;
      }
      std::printf("report written to %s/\n", dir.c_str());
    } else if (cmd == "session") {
      std::printf("%s\n", session.ToJson().c_str());
    } else if (cmd == "stats") {
      std::string format;
      in >> format;
      if (format.empty()) {
        std::printf("%s\n", explorer.StatsReport().c_str());
      } else if (format == "--format=openmetrics") {
        std::printf("%s",
                    obs::ToOpenMetrics(obs::MetricsRegistry::Global()).c_str());
      } else if (format == "--format=html") {
        std::string html = obs::ToHtmlReport(obs::MetricsRegistry::Global(),
                                             "Blaeu session perf report");
        std::string path;
        if (in >> path) {
          std::ofstream out(path);
          if (!out.is_open()) {
            std::printf("cannot open '%s' for writing\n", path.c_str());
            continue;
          }
          out << html;
          std::printf("perf report written to %s\n", path.c_str());
        } else {
          std::printf("%s", html.c_str());
        }
      } else {
        std::printf("usage: stats [--format=openmetrics|html [path]]\n");
      }
    } else if (cmd == "flightlog") {
      std::string sub;
      in >> sub;
      if (sub == "dump") {
        std::string path;
        if (!(in >> path)) {
          std::printf("usage: flightlog dump <path>\n");
          continue;
        }
        std::ofstream out(path);
        if (!out.is_open()) {
          std::printf("cannot open '%s' for writing\n", path.c_str());
          continue;
        }
        out << explorer.FlightLogJson();
        std::printf("flight log written to %s\n", path.c_str());
      } else {
        size_t n = 0;
        if (!sub.empty()) {
          try {
            n = std::stoul(sub);
          } catch (...) {
            std::printf("usage: flightlog [n] | flightlog dump <path>\n");
            continue;
          }
        }
        std::printf("%s", obs::FlightRecorder::Global().ToText(n).c_str());
      }
    } else if (cmd == "trace") {
      std::string path;
      if (!(in >> path)) {
        std::printf("usage: trace <output path>\n");
        continue;
      }
      std::ofstream out(path);
      if (!out.is_open()) {
        std::printf("cannot open '%s' for writing\n", path.c_str());
        continue;
      }
      out << obs::Tracer::Global().ToChromeTrace();
      std::printf("chrome trace written to %s (load in chrome://tracing)\n",
                  path.c_str());
    } else if (cmd == "sql") {
      std::printf("%s\n", session.CurrentQuery().ToSql().c_str());
    } else if (cmd == "history") {
      std::printf("%s", core::RenderBreadcrumbs(session).c_str());
    } else if (cmd == "rollback") {
      if (Status st = session.Rollback(); !st.ok()) {
        std::printf("%s\n", st.ToString().c_str());
        continue;
      }
      std::printf("%s", core::RenderMap(session.current().map).c_str());
    } else if (cmd == "json") {
      std::printf("%s\n", core::MapToJson(session.current().map).c_str());
    } else {
      std::printf("unknown command '%s' (try: help)\n", cmd.c_str());
    }
  }
  std::printf("bye\n");
  return 0;
}
