// The atlas: one map per theme, built up front. The demo shows one map at a
// time; the journal version of Blaeu pre-computes alternatives so the user
// can glance across every "aspect" of the data at once. Map stability
// quantifies how much a map is an artifact of the sample: maps rebuilt from
// independent samples should agree (high ARI) if the structure is real.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/map_builder.h"
#include "core/theme.h"

namespace blaeu::core {

/// One atlas page.
struct AtlasEntry {
  int theme_id = 0;
  DataMap map;
};

/// \brief All themes mapped over one selection.
struct Atlas {
  std::vector<AtlasEntry> entries;  ///< theme order of the ThemeSet
};

/// Builds one map per theme of at least kMinThemeColumns columns over
/// `sel`, each with `options`. InvalidArgument when no theme qualifies.
Result<Atlas> BuildAtlas(const monet::Table& table,
                         const monet::SelectionVector& sel,
                         const ThemeSet& themes, const MapOptions& options);

/// Compact text overview: one block per theme with cluster count,
/// silhouette and the top-level split.
std::string RenderAtlas(const Atlas& atlas, const ThemeSet& themes);

/// Mean pairwise ARI between the leaf partitions of `replicas` maps built
/// with distinct seeds over the same selection (0 when replicas < 2); rows
/// that no leaf holds form one more part of each partition. No product path
/// calls it: bench_stability and atlas_test do.
Result<double> MapStability(const monet::Table& table,
                            const monet::SelectionVector& sel,
                            const std::vector<std::string>& columns,
                            const MapOptions& options, size_t replicas);

}  // namespace blaeu::core
