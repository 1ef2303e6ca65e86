// Renderers: the stand-in for Blaeu's D3 web client (Figures 5 and 6).
// ASCII for the terminal, JSON for programmatic consumers (what the NodeJS
// layer would ship to the browser), DOT for the dependency graph (Figure 2).
#pragma once

#include <string>

#include "core/map.h"
#include "core/navigation.h"
#include "core/theme.h"

namespace blaeu::core {

/// Theme list (Figure 1a / Figure 5 left panel): one line per theme with
/// its label, column count and cohesion.
std::string RenderThemeList(const ThemeSet& themes);

/// Data map as an indented tree (Figure 1b): every edge predicate, leaf
/// tuple counts with area-proportional bars, and cluster ids.
std::string RenderMap(const DataMap& map);

/// Data map as a flat treemap strip: one column of width-proportional
/// blocks per leaf (the "area shows the number of tuples" encoding).
std::string RenderTreemapStrip(const DataMap& map, size_t width = 72);

/// Highlight result (Figure 1c): example values per region.
std::string RenderHighlight(const HighlightResult& highlight);

/// Session breadcrumbs: one line per state with its action and SQL.
std::string RenderBreadcrumbs(const Session& session);

/// JSON document for a map (regions, predicates, counts, quality).
std::string MapToJson(const DataMap& map);

/// Canonical JSON form of a map for regression fixtures and byte-identity
/// comparisons: everything MapToJson carries (plus medoids) EXCEPT
/// build_seconds, the one field that legitimately varies between identical
/// builds. Doubles use JsonWriter's default %.12g formatting — stable across
/// runs of the same binary and tight enough to catch real drift.
std::string CanonicalMapJson(const DataMap& map);

/// JSON document for a theme set.
std::string ThemesToJson(const ThemeSet& themes);

/// The dependency graph (ThemeSet::dependency) in Graphviz DOT (Figure 2):
/// one box per vertex, named and filled after its column's theme, and one
/// edge per vertex pair whose dependency is above `min_weight`, its pen
/// width and label scaled by that weight.
std::string DependencyGraphToDot(const ThemeSet& themes, double min_weight);

}  // namespace blaeu::core
