// CLARA (Clustering LARge Applications, Kaufman & Rousseeuw 1990): the
// sampling-based PAM variant the paper uses "when the data is too large"
// (§3), and the clusterer of every map here. Runs PAM on several random
// sub-samples, extends each medoid set to the full data, and keeps the
// cheapest.
#pragma once

#include "common/rng.h"
#include "common/status.h"
#include "cluster/clustering.h"

namespace blaeu::cluster {

/// CLARA options.
struct ClaraOptions {
  /// Number of independent sub-samples (K&R recommend 5).
  size_t num_samples = 5;
  /// Sub-sample size; 0 means the K&R default 40 + 2k.
  size_t sample_size = 0;
  uint64_t seed = 42;
  /// Passed through to the inner PAM runs.
  size_t max_swap_iterations = 50;
};

/// Clusters `n` points into k groups under `dist_fn`.
///
/// Cost: num_samples * (PAM on sample_size points + O(n * k) extension),
/// against the O(n^2) distance matrix of PAM on all n points.
Result<ClusteringResult> Clara(size_t n, const RowDistanceFn& dist_fn,
                               size_t k, const ClaraOptions& options = {});

}  // namespace blaeu::cluster
