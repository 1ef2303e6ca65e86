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
#include "stats/matrix.h"

namespace blaeu::cluster {

/// Clusters the rows of `features` into k groups by Euclidean distance,
/// drawing the sub-samples from `seed`.
///
/// Cost: 5 * (PAM on 40 + 2k points + O(n * k) extension), or one PAM on
/// all n points and its extension when n <= 40 + 2k, against the O(n^2)
/// distance matrix of PAM on all n points.
Result<ClusteringResult> Clara(const stats::Matrix& features, size_t k,
                               uint64_t seed);

/// The distances Clara computes on n rows for a valid k: C(m, 2) for each
/// sub-sample's matrix of m rows plus n * k for its assignment, over the
/// sub-samples it runs.
int64_t ClaraDistanceCount(size_t n, size_t k);

}  // namespace blaeu::cluster
