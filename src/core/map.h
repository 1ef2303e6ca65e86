// The data-map model (paper §2): a hierarchy of regions over the current
// selection. Internal edges carry interpretable split predicates (from the
// CART description), leaves are clusters, and leaf "area" is the tuple
// count. Maps are both output (a summary) and input (zoom targets).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "monet/predicate.h"
#include "obs/resource.h"

namespace blaeu::core {

/// \brief One region (node) of a data map.
struct MapRegion {
  int id = 0;           ///< index into DataMap::regions
  int parent = -1;      ///< parent region id; -1 for the root
  std::vector<int> children;

  /// Predicate of the edge from the parent ("% long hours >= 20"); the
  /// root's edge is empty.
  monet::Conjunction edge;
  /// Full predicate from the map root (conjunction of edges on the path).
  monet::Conjunction predicate;

  size_t tuple_count = 0;   ///< tuples of the full selection in the region
  int cluster_label = -1;   ///< leaf: cluster id; internal: -1
  /// Representative tuple (table row id) — the cluster medoid; leaves only.
  uint32_t medoid_row = 0;
  bool has_medoid = false;

  bool is_leaf() const { return children.empty(); }
  /// Human-readable edge label ("TRUE" for the root).
  std::string EdgeLabel() const { return edge.ToSql(); }
};

/// \brief A complete data map over one selection and one column set.
struct DataMap {
  /// Regions in depth-first order; regions[0] is the root.
  std::vector<MapRegion> regions;
  /// Active (theme) columns the map was built on.
  std::vector<std::string> active_columns;

  size_t num_clusters = 0;
  /// Medoid silhouette of the clustering over the sampled tuples, which the
  /// k sweep maximizes (cluster::ClusteringResult::medoid_silhouette).
  double silhouette = 0.0;
  double tree_fidelity = 0.0;   ///< CART agreement with the clustering
  size_t sample_size = 0;       ///< tuples actually clustered
  size_t total_tuples = 0;      ///< size of the selection summarized
  std::string algorithm;        ///< "clara", or "trivial" for one region
  double build_seconds = 0.0;   ///< wall-clock build latency
  /// What producing this map cost for THIS interaction (obs/resource.h). A
  /// map served from the cache reports cache_hits = 1 and zero work; a cold
  /// build reports the sampled row count, distance evaluations, tree size
  /// etc. Not part of the map's identity: canonical JSON and the golden
  /// fixtures exclude it.
  obs::ResourceProfile resources;

  const MapRegion& root() const { return regions.front(); }
  const MapRegion& region(int id) const { return regions[id]; }

  /// Ids of the leaf regions, in depth-first order.
  std::vector<int> LeafIds() const;

  /// Checks id range; IndexError otherwise.
  Status ValidateRegionId(int id) const;
};

}  // namespace blaeu::core
