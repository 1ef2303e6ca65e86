// Per-map resource accounting: what one BuildMap actually cost, beyond wall
// clock — rows scanned, feature cells materialized, distance evaluations,
// description-tree size, cache traffic and peak scratch memory. Stage times
// are not here: each stage's span observes its own core.map.<stage>_seconds
// (obs/trace.h).
//
// The profile travels with the map (DataMap::resources), so a serving layer
// can answer "what did THIS interaction cost" per response, and is
// aggregated into the MetricsRegistry under the core.map.* convention so
// dashboards see totals. A map served from the cache carries a profile of
// the work done for that interaction: cache_hits = 1 and everything else 0
// — the cold build's costs are not re-reported.
#pragma once

#include <cstdint>

#include "obs/metrics.h"

namespace blaeu::obs {

/// \brief What one map build cost. All counts are zero for a map served
/// from the cache (except cache_hits).
struct ResourceProfile {
  /// Rows read out of the table to build the map: the sampled rows fed
  /// through preprocessing and clustering.
  int64_t rows_scanned = 0;
  /// Rows of the FULL selection evaluated while counting region sizes
  /// (one pass per tree level).
  int64_t rows_counted = 0;
  /// Cells of the preprocessed feature matrix (rows x features).
  int64_t cells_materialized = 0;
  /// Metric-space distance evaluations: CLARA's sample matrices and
  /// assignments, which also score each k, counted by arithmetic as
  /// C(m, 2) + n * k per sub-sample of m rows (cluster::ClaraDistanceCount).
  /// Zero for a trivial map, which never clusters.
  int64_t distance_evaluations = 0;
  /// Nodes of the trained CART description tree (= map regions).
  int64_t cart_nodes = 0;
  /// Whole-map cache traffic for the interaction that produced this map.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Peak scratch memory: the feature matrix (8 bytes a cell), plus for a
  /// clustered map the count stage's row ids (4 bytes per row of every
  /// region), which live at the same time. Zero when preprocessing failed.
  int64_t peak_scratch_bytes = 0;

  /// Aggregates this profile into `registry`: counters
  /// core.map.{rows_scanned,rows_counted,cells_materialized,
  /// distance_evaluations,cart_nodes} and the histogram
  /// core.map.scratch_peak_bytes.
  void ReportTo(MetricsRegistry* registry) const;
};

}  // namespace blaeu::obs
