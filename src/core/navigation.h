// The navigation session (paper §2): zoom, highlight, project, rollback.
// Every action is reversible; every state corresponds to an implicit
// Select-Project query over the base table.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/map.h"
#include "core/map_builder.h"
#include "core/map_cache.h"
#include "core/theme.h"
#include "monet/column_stats.h"
#include "monet/query.h"
#include "monet/sampling.h"
#include "monet/selection.h"
#include "monet/table.h"

namespace blaeu::core {

/// Session-wide options.
struct SessionOptions {
  ThemeOptions themes;
  MapOptions map;
  uint64_t seed = 42;

  /// Navigation-aware map cache (core/map_cache.h). When enabled, every map
  /// the session builds is memoized, so rollback + re-visit of a navigation
  /// state is O(1) and bit-identical to a cache-disabled session. A cache
  /// the session (or Explorer) creates has MapCache::BudgetFromEnv()'s
  /// budget.
  bool cache_enabled = true;
  /// Shared cache instance: the Explorer sets this so all its sessions
  /// share one budget; null makes each session create its own private one
  /// (when enabled). Callers sharing a cache across sessions must keep
  /// (table_name, table_version) unique per distinct table.
  MapCachePtr cache;
  /// Version of the table this session explores, bumped by the Explorer on
  /// every (re-)load; part of every cache key.
  uint64_t table_version = 0;
};

/// \brief One navigation state: a selection, an active theme, and its map.
struct NavState {
  monet::SelectionVector selection;
  int theme_id = -1;                  ///< index into the session's ThemeSet
  std::vector<std::string> columns;   ///< active columns
  monet::Conjunction where;           ///< accumulated predicate from the root
  DataMap map;
  std::string action;                 ///< what produced this state
  /// User notes attached to regions of this state's map ("the maps ...
  /// provide facilities to inspect their content and annotate them", §1).
  std::map<int, std::string> annotations;
};

/// \brief Per-region summary returned by the highlight action.
struct RegionHighlight {
  int region_id = 0;
  size_t tuple_count = 0;
  monet::ColumnStats stats;
  /// Up to 5 example values of the highlighted column inside the region
  /// ("Switzerland, Norway, Canada, ..." in Figure 1c).
  std::vector<std::string> examples;
};

/// \brief Result of highlighting a column on the current map.
struct HighlightResult {
  std::string column;
  std::vector<RegionHighlight> regions;  ///< one per leaf region
};

/// \brief One region's detailed univariate view (highlight drill-down).
struct RegionDetail {
  int region_id = 0;
  size_t tuple_count = 0;
  /// ASCII rendering: histogram for numeric columns, frequency bars for
  /// categorical ones — "classic univariate ... visualization methods,
  /// such as histograms" (§2).
  std::string rendering;
};

/// \brief Detailed highlight: per-region distribution of one column.
struct HighlightDetailResult {
  std::string column;
  bool numeric = false;
  std::vector<RegionDetail> regions;
};

/// \brief Per-region bivariate view (ASCII density scatter, §2's
/// "scatter-plots").
struct ScatterDetailResult {
  std::string x_column;
  std::string y_column;
  std::vector<RegionDetail> regions;
};

/// \brief An interactive exploration session over one table.
///
/// The session owns a state stack. Actions push states; Rollback pops them.
/// State 0 is the whole table mapped on the best theme.
class Session {
 public:
  /// Opens a session: detects themes, builds the initial map on the
  /// highest-cohesion theme over the full table.
  static Result<Session> Start(monet::TablePtr table, std::string table_name,
                               const SessionOptions& options = {});

  /// The detected themes (fixed for the session's table).
  const ThemeSet& themes() const { return themes_; }

  /// The current navigation state.
  const NavState& current() const { return history_.back(); }
  /// Number of states on the stack (>= 1).
  size_t history_size() const { return history_.size(); }
  /// Read-only access to any past state.
  const NavState& state(size_t i) const { return history_[i]; }

  const monet::Table& table() const { return *table_; }
  const std::string& table_name() const { return table_name_; }

  /// Re-maps the current selection on theme `theme_idx` (also the initial
  /// theme choice; paper Figure 1a -> 1b). Pushes a state.
  Status SelectTheme(size_t theme_idx);

  /// Drills into region `region_id` of the current map: the new selection
  /// is the subset of the current selection satisfying the region's
  /// predicate, re-mapped on the same columns. Pushes a state.
  Status Zoom(int region_id);

  /// Re-maps the current selection on the columns of another theme
  /// (paper Figure 1d). Pushes a state.
  Status Project(size_t theme_idx);

  /// Summarizes `column` inside each leaf region of the current map
  /// (paper Figure 1c). Does not change the state.
  Result<HighlightResult> Highlight(const std::string& column) const;

  /// Full per-region distribution of `column`: histograms for numeric
  /// columns (with `bins` buckets), frequency tables otherwise.
  Result<HighlightDetailResult> HighlightDetail(const std::string& column,
                                                size_t bins = 10) const;

  /// Per-region binned scatter of two numeric columns.
  Result<ScatterDetailResult> ScatterDetail(const std::string& x_column,
                                            const std::string& y_column) const;

  /// Attaches a note to a region of the current map (replaces any previous
  /// note). Annotations travel with the state: rollback discards them.
  Status Annotate(int region_id, std::string note);

  /// Notes on the current map, keyed by region id.
  const std::map<int, std::string>& annotations() const {
    return history_.back().annotations;
  }

  /// Serializes the whole session (states, actions, SQL, annotations, map
  /// summaries) as JSON — what the NodeJS layer would persist.
  std::string ToJson() const;

  /// Returns to the previous state; Invalid at the initial state.
  Status Rollback();

  /// Returns to state `index` (0-based), discarding everything after it.
  Status RollbackTo(size_t index);

  /// The session's map cache (null when caching is disabled).
  const MapCachePtr& cache() const { return cache_; }
  /// Process-unique id tagging this session's cache entries.
  uint64_t session_id() const { return session_id_; }

  /// Drops this session's entries from the cache. Called automatically on
  /// destruction (and therefore by Explorer::CloseSession), so open/close
  /// cycles cannot grow a shared cache.
  void ReleaseCacheEntries();

  /// The implicit Select-Project query of the current state.
  monet::SelectProjectQuery CurrentQuery() const;

  /// Materializes up to `max_rows` tuples of a region for inspection.
  Result<monet::TablePtr> Inspect(int region_id, size_t max_rows = 10) const;

  /// Moves transfer cache ownership (the moved-from session releases
  /// nothing on destruction). Move-assignment over a live session abandons
  /// the target's entries to the LRU rather than evicting them.
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;
  ~Session() { ReleaseCacheEntries(); }

 private:
  Session(monet::TablePtr table, std::string table_name,
          SessionOptions options, ThemeSet themes);

  /// SelectTheme and Project: pushes the map of the current selection (the
  /// whole table before Start's first state) on theme `theme_idx`'s
  /// columns. `verb` names the action and its flight event.
  Status MapTheme(size_t theme_idx, const std::string& verb);

  /// Fetches the map for `sel` on `columns` from the cache, or builds it
  /// with the session sampler and caches it.
  Result<DataMap> MakeMap(const monet::SelectionVector& sel,
                          const std::vector<std::string>& columns);

  monet::TablePtr table_;
  std::string table_name_;
  SessionOptions options_;
  ThemeSet themes_;
  monet::MultiScaleSampler sampler_;
  std::vector<NavState> history_;
  MapCachePtr cache_;
  uint64_t session_id_ = 0;
  uint64_t table_fp_ = 0;   ///< schema-shape fingerprint (cache key guard)
  uint64_t options_fp_ = 0; ///< fingerprint of the output-affecting options
};

}  // namespace blaeu::core
