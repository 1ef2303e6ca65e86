// Shared clustering result type.
#pragma once

#include <cstddef>
#include <vector>

namespace blaeu::cluster {

/// \brief Output of a partitional clustering run.
struct ClusteringResult {
  /// Cluster id per point, in [0, k).
  std::vector<int> labels;
  /// Representative point per cluster (its medoid index).
  std::vector<size_t> medoids;
  /// Objective value: sum over points of distance to their representative.
  double total_cost = 0.0;
  /// Mean medoid silhouette (Van der Laan, Pollard & Bryan 2003): the mean
  /// of 1 - d1/d2 over the non-medoid points, where d1 and d2 are a point's
  /// distances to its nearest and second-nearest medoid. A point with
  /// d2 = 0, and every point at k = 1, scores 0.
  double medoid_silhouette = 0.0;
  /// Realized number of clusters.
  size_t num_clusters() const { return medoids.size(); }
};

/// Sizes of each cluster in `labels` (k inferred as max label + 1).
std::vector<size_t> ClusterSizes(const std::vector<int>& labels);

}  // namespace blaeu::cluster
