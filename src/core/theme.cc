#include "core/theme.h"

#include <algorithm>

#include "cluster/kselect.h"
#include "cluster/pam.h"
#include "common/string_util.h"
#include "monet/column_stats.h"

namespace blaeu::core {

using monet::Table;

std::string Theme::Label(size_t max_names) const {
  std::vector<std::string> head;
  for (size_t i = 0; i < names.size() && i < max_names; ++i) {
    head.push_back(names[i]);
  }
  std::string label = Join(head, ", ");
  if (names.size() > max_names) {
    label += ", ... (+" + std::to_string(names.size() - max_names) + ")";
  }
  return label;
}

Result<ThemeSet> DetectThemes(const Table& table,
                              const ThemeOptions& options) {
  // Candidate columns: everything except primary keys.
  std::vector<size_t> columns;
  const std::vector<size_t> keys = monet::DetectPrimaryKeyColumns(table);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (std::find(keys.begin(), keys.end(), c) == keys.end()) {
      columns.push_back(c);
    }
  }
  if (columns.empty()) return Status::Invalid("no non-key columns");

  // The dependency graph: the dependency matrix over the candidate columns
  // only, one vertex per column.
  monet::TablePtr view = table.Project(columns);
  ThemeSet out;
  BLAEU_ASSIGN_OR_RETURN(out.dependency,
                         stats::DependencyMatrix(*view, options.dependency));
  const std::vector<std::vector<double>>& dep = out.dependency;
  out.graph_columns = columns;

  const size_t m = columns.size();
  std::vector<std::string> names;
  for (size_t i = 0; i < m; ++i) {
    names.push_back(table.schema().field(columns[i]).name);
  }

  // Partition the graph: PAM on distance = 1 - dependency.
  std::vector<int> labels(m, 0);
  std::vector<size_t> medoids;
  if (m < 3 || options.max_themes < 2) {
    medoids.assign(1, 0);
  } else {
    stats::DistanceMatrix dist(m);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = i + 1; j < m; ++j) {
        dist.Set(i, j, 1.0 - dep[i][j]);
      }
    }
    BLAEU_ASSIGN_OR_RETURN(
        cluster::KSelectResult result,
        cluster::SelectKWithPam(dist, std::min(options.max_themes, m - 1)));
    labels = result.best.labels;
    medoids = result.best.medoids;
    out.silhouette = result.best_score;
  }

  // Assemble themes.
  out.themes.resize(medoids.size());
  for (size_t t = 0; t < medoids.size(); ++t) {
    out.themes[t].id = static_cast<int>(t);
    out.themes[t].medoid_column = columns[medoids[t]];
  }
  for (size_t i = 0; i < m; ++i) {
    Theme& theme = out.themes[labels[i]];
    theme.columns.push_back(columns[i]);
    theme.names.push_back(names[i]);
  }
  // Cohesion: mean pairwise dependency inside the theme, summed over the
  // vertex pairs i < j of one theme in order.
  std::vector<double> total(out.themes.size(), 0.0);
  std::vector<size_t> pairs(out.themes.size(), 0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      if (labels[i] != labels[j]) continue;
      total[labels[i]] += dep[i][j];
      ++pairs[labels[i]];
    }
  }
  for (size_t t = 0; t < out.themes.size(); ++t) {
    // Singleton themes carry no dependency signal; rank them last rather
    // than letting the vacuous "1.0" cohesion put them first.
    out.themes[t].cohesion =
        pairs[t] > 0 ? total[t] / static_cast<double>(pairs[t]) : 0.0;
  }
  std::sort(out.themes.begin(), out.themes.end(),
            [](const Theme& a, const Theme& b) {
              if (a.cohesion != b.cohesion) return a.cohesion > b.cohesion;
              return a.id < b.id;
            });
  for (size_t t = 0; t < out.themes.size(); ++t) {
    out.themes[t].id = static_cast<int>(t);
  }
  return out;
}

}  // namespace blaeu::core
