#include "core/suggest.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"
#include "monet/sampling.h"
#include "stats/column_dependency.h"

namespace blaeu::core {

namespace {

/// Rows sampled from the selection for dependency estimation, and the seed
/// of the sample.
constexpr size_t kSampleRows = 1000;
constexpr uint64_t kSeed = 42;

}  // namespace

Result<std::vector<ProjectionSuggestion>> SuggestProjections(
    const Session& session) {
  const NavState& cur = session.current();
  const ThemeSet& themes = session.themes();

  Rng rng(kSeed);
  monet::SelectionVector sample =
      monet::SampleFromSelection(cur.selection, kSampleRows, &rng);

  std::vector<ProjectionSuggestion> out;
  for (const Theme& theme : themes.themes) {
    if (theme.columns.size() < kMinThemeColumns) continue;
    // Dependency matrix of the theme's columns over the sampled selection.
    monet::TablePtr view = session.table().Project(theme.columns);
    stats::DependencyOptions dep;
    dep.sample_rows = 0;  // we already sampled
    monet::TablePtr sampled = view->Take(sample.rows());
    BLAEU_ASSIGN_OR_RETURN(auto matrix,
                           stats::DependencyMatrix(*sampled, dep));
    double total = 0.0;
    size_t pairs = 0;
    for (size_t i = 0; i < matrix.size(); ++i) {
      for (size_t j = i + 1; j < matrix.size(); ++j) {
        total += matrix[i][j];
        ++pairs;
      }
    }
    ProjectionSuggestion s;
    s.theme_id = theme.id;
    s.local_cohesion = pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
    s.lift = s.local_cohesion - theme.cohesion;
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const ProjectionSuggestion& a, const ProjectionSuggestion& b) {
              if (a.lift != b.lift) return a.lift > b.lift;
              return a.theme_id < b.theme_id;
            });
  return out;
}

std::string RenderSuggestions(
    const Session& session,
    const std::vector<ProjectionSuggestion>& suggestions) {
  std::ostringstream out;
  out << "Projection suggestions for the current selection ("
      << session.current().selection.size() << " tuples):\n";
  for (const ProjectionSuggestion& s : suggestions) {
    const Theme& theme = session.themes().theme(s.theme_id);
    out << "  theme " << s.theme_id << "  cohesion "
        << FormatDouble(s.local_cohesion, 3) << " ("
        << (s.lift >= 0 ? "+" : "") << FormatDouble(s.lift, 3)
        << " vs global): " << theme.Label() << "\n";
  }
  return out.str();
}

}  // namespace blaeu::core
