// Silhouette coefficient (Rousseeuw 1987), Blaeu's clustering-quality
// score (paper §3). The exact mean silhouette here chooses k for themes
// and scores maps in the quality tests. A map chooses its k by the medoid
// silhouette of each CLARA candidate instead
// (cluster::ClusteringResult::medoid_silhouette), which needs no distance
// beyond the clustering's own.
#pragma once

#include <vector>

#include "stats/distance.h"
#include "stats/matrix.h"

namespace blaeu::stats {

/// Silhouette value s(i) for each point, given a precomputed distance
/// matrix and cluster labels in [0, k). Points in singleton clusters get
/// s = 0 (Kaufman & Rousseeuw convention).
std::vector<double> SilhouetteValues(const DistanceMatrix& dist,
                                     const std::vector<int>& labels);

/// Mean silhouette over all points (exact, O(n^2) distances).
double MeanSilhouette(const DistanceMatrix& dist,
                      const std::vector<int>& labels);

/// Exact mean silhouette with Euclidean distance on `data`.
double MeanSilhouetteEuclidean(const Matrix& data,
                               const std::vector<int>& labels);

}  // namespace blaeu::stats
