// CLARA (Clustering LARge Applications, Kaufman & Rousseeuw 1990): the
// sampling-based PAM variant the paper uses "when the data is too large"
// (§3), and the clusterer of every map here. Runs PAM on Kaufman and
// Rousseeuw's 5 random sub-samples of 40 + 2k points, extends each medoid
// set to the full data, and keeps the cheapest. When 40 + 2k covers all
// points, the five sub-samples are one set, which runs once.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "cluster/clustering.h"

namespace blaeu::cluster {

/// Clusters `n` points into k groups under `dist_fn`, drawing the
/// sub-samples from `seed`.
///
/// Cost: 5 * (PAM on 40 + 2k points + O(n * k) extension), or one PAM on
/// all n points and its extension when n <= 40 + 2k, against the O(n^2)
/// distance matrix of PAM on all n points.
Result<ClusteringResult> Clara(size_t n, const RowDistanceFn& dist_fn,
                               size_t k, uint64_t seed);

}  // namespace blaeu::cluster
