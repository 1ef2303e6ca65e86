// Projection suggestions: Blaeu's guidance loop. After a few zooms the
// interesting question is "which other theme would re-slice *this*
// selection well?" — the suggester re-scores every theme's cohesion on the
// current selection and ranks the alternatives (the paper's aim of
// "triggering insights and serendipity" without manual search).
#pragma once

#include <vector>

#include "common/status.h"
#include "core/navigation.h"

namespace blaeu::core {

/// One ranked suggestion.
struct ProjectionSuggestion {
  int theme_id = 0;
  /// Mean pairwise dependency of the theme's columns measured on the
  /// CURRENT selection (not the whole table).
  double local_cohesion = 0.0;
  /// local_cohesion - global cohesion: positive means the theme's columns
  /// are MORE coupled inside this selection than in general — an aspect
  /// that this selection sharpens.
  double lift = 0.0;
};

/// Scores every theme of at least kMinThemeColumns columns (the active one
/// included) on 1,000 rows sampled from the session's current selection
/// with seed 42, and returns the suggestions sorted by lift, best first.
Result<std::vector<ProjectionSuggestion>> SuggestProjections(
    const Session& session);

/// Renders suggestions as text ("theme 3 (+0.12 lift): unemployment, ...").
std::string RenderSuggestions(
    const Session& session,
    const std::vector<ProjectionSuggestion>& suggestions);

}  // namespace blaeu::core
