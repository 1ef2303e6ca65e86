// The scripted exploration the navigation benchmark replays: one simulated
// user, closed loop, no think time, driving the public Explorer/Session API
// with default SessionOptions.
//
// A session is [LoadCsv,] OpenSession, kExcursions excursions,
// CloseSession. An excursion, always starting from the session's initial
// state, is
//   SelectTheme(t), three Zooms, Project(t'), Highlight(c),
//   HighlightDetail(c), Inspect(leaf), RollbackTo(0).
// Excursions come in rounds of four. Round 0 walks four fresh paths, one
// per theme t of the first four (from a seeded start that moves by one each
// session), projecting onto the next theme t'. Later rounds replay the
// same paths, so their SelectTheme and Zooms are cache hits, and project
// onto another theme. Each Zoom and the Inspect go into a leaf region
// picked with probability proportional to its rows, as the leaf containing
// a random row of the selection would be: targets are weighted like the
// rows, reach every selection size, and stay valid whatever the maps look
// like. c is a non-key column. The draws are quasi-random: the g-th draw of
// a run is the quantile u + g * step (mod 1), one seeded u and one
// irrational step per zoom depth (and for the Inspect and the column), so a
// run's paths spread over the leaves in proportion to their rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "monet/table.h"
#include "obs/trace.h"

namespace navbench {

/// The calls a session makes.
enum class Action {
  kLoad,
  kOpen,
  kSelectTheme,
  kZoom,
  kProject,
  kHighlight,
  kHighlightDetail,
  kInspect,
  kRollback,
  kClose,
};

/// "load", "open", "select_theme", ...; the traced replay names each call's
/// root span bench.<name>.
const char* ActionName(Action action);

/// Open, SelectTheme, Zoom and Project produce a map; the rest do not.
bool IsMapAction(Action action);

/// One timed call.
struct ActionRecord {
  Action action = Action::kOpen;
  double ms = 0.0;
  /// Map actions: the map was built rather than served by the cache
  /// (current().map.resources.cache_hits == 0 afterwards).
  bool cold = false;
  /// Map actions: rows of the resulting selection.
  size_t selection_rows = 0;
};

/// The successful calls of one session, in order.
struct SessionRecord {
  std::vector<ActionRecord> actions;
  /// Sum of the waits from load (or open) to close.
  double wait_s = 0.0;
};

/// What replaying sessions produced besides timings.
struct ReplayLog {
  int64_t attempted = 0;  ///< calls made
  int64_t failed = 0;     ///< calls whose Status was not OK
  /// Failed calls and failed output checks, one line each.
  std::vector<std::string> errors;
  /// The action sequence, e.g. "zoom(4)".
  std::vector<std::string> trail;
  /// FNV-1a over the trail and every visited map's canonical JSON.
  uint64_t digest = 0xcbf29ce484222325ULL;
  int64_t cold_maps = 0;
  /// Cold maps that fell back to a single region.
  int64_t trivial_maps = 0;
  /// Selection rows that satisfy no leaf predicate, summed over cold maps.
  int64_t rows_outside_leaves = 0;
  /// Traced replays only: bench-timed Conjunction::EvaluateOn of each zoom
  /// target's predicate over the current selection, and the rows it read.
  std::vector<double> predicate_eval_ms;
  int64_t predicate_rows_in = 0;
  /// Traced replays only: largest MapCache::stats().bytes after an action.
  size_t cache_bytes_max = 0;
};

/// The explored table's name in the Explorer's catalog.
inline constexpr char kTableName[] = "workload";
/// Excursions per session.
inline constexpr size_t kExcursions = 8;

/// What to replay.
struct ScriptOptions {
  /// When set, every session starts with Explorer::LoadCsv of this file,
  /// replacing the table. Otherwise the caller registers the table under
  /// kTableName.
  std::string csv_path;
  uint64_t seed = 1;
  /// Non-null for the traced replay: every call runs under a root span
  /// bench.<action>, and each zoom target's predicate is timed between
  /// calls under monet.predicate.eval.
  blaeu::obs::Tracer* tracer = nullptr;
};

/// Replays session `index` of the script on `explorer` and checks its
/// outputs into `log`. A failed call ends the session early.
SessionRecord RunSession(blaeu::core::Explorer* explorer,
                         const ScriptOptions& options, size_t index,
                         ReplayLog* log);

}  // namespace navbench
