// Vertical clustering (paper §3, "Creating Themes"): compute the dependency
// graph over columns, the matrix of their pairwise dependencies, then
// partition it with PAM into themes — "groups of mutually dependent
// columns" that each highlight one aspect of the data. Primary-key columns
// are always excluded, and the number of themes is swept by silhouette from
// 2 up to ThemeOptions::max_themes.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "stats/column_dependency.h"

namespace blaeu::core {

/// \brief One theme: a group of mutually dependent columns.
struct Theme {
  int id = 0;
  std::vector<size_t> columns;       ///< indices into the table schema
  std::vector<std::string> names;    ///< column names, same order
  size_t medoid_column = 0;          ///< the theme's most central column
  double cohesion = 0.0;             ///< mean pairwise dependency inside

  /// "name1, name2, name3" label (first 3 names).
  std::string Label(size_t max_names = 3) const;
};

/// Themes of fewer columns than this carry no dependency signal: the atlas
/// and the projection suggester skip them.
constexpr size_t kMinThemeColumns = 2;

/// Theme-detection options.
struct ThemeOptions {
  stats::DependencyOptions dependency;
  /// Upper end of the theme counts swept with the silhouette criterion
  /// (from 2).
  size_t max_themes = 12;
};

/// \brief Theme detection output.
struct ThemeSet {
  std::vector<Theme> themes;  ///< sorted by cohesion, best first
  /// The dependency graph (Figure 2) over the non-key columns, as
  /// stats::DependencyMatrix returns it: entry (i, j) is the weight of the
  /// edge between vertices i and j.
  std::vector<std::vector<double>> dependency;
  std::vector<size_t> graph_columns;  ///< table column per graph vertex
  double silhouette = 0.0;            ///< score of the chosen partition

  const Theme& theme(size_t i) const { return themes[i]; }
  size_t size() const { return themes.size(); }
};

/// Detects themes on the non-key columns of `table`: dependency matrix ->
/// PAM over the graph distances (1 - dependency), with the number of themes
/// chosen by silhouette. Tables with fewer than 3 usable columns
/// yield one theme.
Result<ThemeSet> DetectThemes(const monet::Table& table,
                              const ThemeOptions& options = {});

}  // namespace blaeu::core
