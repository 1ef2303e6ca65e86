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

/// Writes into `directory` (which must exist):
///   themes.txt / themes.json     — the theme list (Figure 1a)
///   dependency.dot               — the dependency graph (Figure 2), its
///                                  edges of dependency above 0.2
///   state_<i>_map.txt / .json    — every navigation state's map
///   state_<i>_query.sql          — the implicit query of each state
///   session.json                 — the full action log with annotations
///   region_<id>.csv              — the first 100 rows of each leaf of the
///                                  current map
/// Returns IOError if any file cannot be written.
Status ExportSessionReport(const Session& session,
                           const std::string& directory);

}  // namespace blaeu::core
