// Silhouette-driven choice of the number of clusters k: "we generate
// several partitionings with different numbers of clusters, and keep the
// one with the best score" (paper §3).
#pragma once

#include <functional>

#include "common/status.h"
#include "cluster/clustering.h"
#include "stats/distance.h"

namespace blaeu::cluster {

/// \brief Outcome of the sweep.
struct KSelectResult {
  size_t best_k = 0;
  double best_score = 0.0;
  ClusteringResult best;
  /// The score of each candidate k, lowest k first.
  std::vector<double> scores;
};

/// Clusterer under test: produces a partition for a given k.
using ClusterFn = std::function<Result<ClusteringResult>(size_t k)>;

/// Scores the partition `cluster_fn` produced for k; higher is better.
using ScoreFn =
    std::function<double(size_t k, const ClusteringResult& result)>;

/// \brief The one k sweep: every silhouette-driven choice of k runs
/// through it.
///
/// Runs `cluster_fn(k)` and then `score_fn(k, ·)` once for every k in
/// [k_min, k_max], one pool task per k (`num_threads` as in
/// common/parallel.h; both functions must be thread-safe for any value
/// other than 1), and picks exactly what the serial ascending-k loop picks:
///  - the first error in k order propagates;
///  - the lowest k whose score strictly beats every smaller k wins, and
///    `best_score` starts below every silhouette, at -2.
/// An empty range (k_min > k_max) is rejected with InvalidArgument. The
/// result is the same at any thread count. Each sweep adds 1 to
/// `cluster.kselect.sweeps`, its candidate count to
/// `cluster.kselect.candidates` and its latency to
/// `cluster.kselect.sweep_seconds` in the global registry.
Result<KSelectResult> SweepK(size_t k_min, size_t k_max,
                             const ClusterFn& cluster_fn,
                             const ScoreFn& score_fn, size_t num_threads);

/// Theme detection's k sweep: a serial SweepK of PAM over k in
/// [2, min(k_max, n - 1)], each partition scored by its exact mean
/// silhouette under `dist`, and -1 for a partition with fewer than k
/// non-empty clusters. The result is that of one Pam(dist, k) per k, with
/// one PamBuild for the whole sweep instead of one per k. Fewer than 2
/// points, or k_max < 2, is InvalidArgument. The map builder sweeps CLARA
/// through SweepK with its own ScoreFn, the medoid silhouette.
Result<KSelectResult> SelectKWithPam(const stats::DistanceMatrix& dist,
                                     size_t k_max);

}  // namespace blaeu::cluster
