// Session report export: writes every artifact of an exploration session
// to a directory — the headless equivalent of saving the demo's screen
// state (theme view, map views, dependency graph, the implicit queries and
// the region contents). The theme list, every map and the Figure 2 graph
// of a session regenerate from these files.
#pragma once

#include <string>

#include "common/status.h"
#include "core/navigation.h"

namespace blaeu::core {

/// Report options.
struct ReportOptions {
  /// Rows exported per leaf-region CSV (0 disables region CSVs).
  size_t region_csv_rows = 100;
  /// Edges below this dependency are omitted from the DOT graph.
  double dot_min_weight = 0.2;
};

/// Writes into `directory` (which must exist):
///   themes.txt / themes.json     — the theme list (Figure 1a)
///   dependency.dot               — the dependency graph (Figure 2)
///   state_<i>_map.txt / .json    — every navigation state's map
///   state_<i>_query.sql          — the implicit query of each state
///   session.json                 — the full action log with annotations
///   region_<id>.csv              — current map's leaf contents (capped)
/// Returns IOError if any file cannot be written.
Status ExportSessionReport(const Session& session,
                           const std::string& directory,
                           const ReportOptions& options = {});

}  // namespace blaeu::core
