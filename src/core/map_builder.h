// The mapping engine (paper §3, Figure 3): sample -> preprocess -> cluster
// (a CLARA k sweep, k chosen by silhouette) -> describe with CART ->
// assemble the region hierarchy -> count each region's rows over the
// selection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/map.h"
#include "core/preprocess.h"
#include "monet/sampling.h"
#include "monet/selection.h"
#include "monet/table.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace blaeu::core {

/// Map-construction options.
struct MapOptions {
  /// Tuples sampled from the selection before clustering (paper: "a few
  /// thousand samples"). 0 disables sampling.
  size_t sample_size = 2000;
  /// Largest cluster count of the silhouette sweep, which runs k from 2 to
  /// min(k_max, sampled rows - 1). Every candidate is a CLARA run over the
  /// sample, scored by the medoid silhouette of its assignment of the whole
  /// sample (cluster::ClusteringResult::medoid_silhouette).
  size_t k_max = 6;
  /// Fix k exactly (0 = sweep with silhouette).
  size_t fixed_k = 0;
  uint64_t seed = 42;
  /// Thread budget for the whole build: preprocessing, the k sweep, CART
  /// split search and region counting all draw from the process-wide pool
  /// (common/parallel.h). 0 = process default (BLAEU_NUM_THREADS, else
  /// hardware_concurrency); 1 = fully serial. The map produced — regions,
  /// predicates, tuple counts, silhouette — is bit-identical at any value.
  size_t num_threads = 0;
  /// Observability sinks. Null means the process-global instances: spans go
  /// to obs::Tracer::Global() (a no-op until enabled) and metrics to
  /// obs::MetricsRegistry::Global(). Tests inject their own to watch one
  /// build in isolation.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Flight recorder for the build's map_built / error events (null = the
  /// process-global recorder). Like the sinks above, never part of the
  /// cache key.
  obs::FlightRecorder* flight = nullptr;
};

/// Builds the data map of `sel` over the `columns` of `table` (the active
/// theme). `columns` must be non-empty and name existing columns.
///
/// The clustering runs on a sample of at most `options.sample_size` rows.
/// With a `sampler` (a session's shared permutation of `table`), a
/// selection of more than 4 x sample_size rows is first narrowed to the
/// sampler's 4 x sample_size rows of it, and the sample is drawn from
/// those; without one it is drawn from the whole selection. Region tuple
/// counts always cover the *whole* selection (RegionRows below), so the map
/// summarizes everything the user selected.
Result<DataMap> BuildMap(const monet::Table& table,
                         const monet::SelectionVector& sel,
                         const std::vector<std::string>& columns,
                         const MapOptions& options = {},
                         const monet::MultiScaleSampler* sampler = nullptr);

/// The rows of `sel` inside each region of `map`, indexed by region id: the
/// root holds `sel` and every other region the rows of its parent that
/// satisfy its edge, so each tree level costs one pass over its parents'
/// rows. The regions of one level run in parallel on the pool
/// (`num_threads` as in MapOptions); the result is the same at any value.
/// `table` must contain the columns the edges name.
Result<std::vector<monet::SelectionVector>> RegionRows(
    const monet::Table& table, const DataMap& map,
    const monet::SelectionVector& sel, size_t num_threads = 0);

/// Convenience: map over all rows and all columns.
Result<DataMap> BuildMap(const monet::Table& table,
                         const MapOptions& options = {});

}  // namespace blaeu::core
