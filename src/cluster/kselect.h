// Silhouette-driven choice of the number of clusters k: "we generate
// several partitionings with different numbers of clusters, and keep the
// one with the best score" (paper §3).
#pragma once

#include <functional>

#include "common/status.h"
#include "cluster/clustering.h"
#include "stats/distance.h"

namespace blaeu::cluster {

/// Range of the k sweep of SelectK.
struct KSelectOptions {
  size_t k_min = 2;
  size_t k_max = 8;
};

/// \brief Outcome of the sweep.
struct KSelectResult {
  size_t best_k = 0;
  double best_score = 0.0;
  ClusteringResult best;
  /// score[i] is the mean silhouette at k = k_min + i.
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

/// Serial SweepK over k in [max(2, k_min), min(k_max, n-1)], scoring each
/// partition by its exact mean silhouette under `dist`. Candidates whose
/// realized partition degenerates (fewer than k non-empty clusters) score
/// -1. A caller that wants another score or threads calls SweepK with its
/// own ScoreFn, as the map builder does with the medoid silhouette.
Result<KSelectResult> SelectK(const stats::DistanceMatrix& dist,
                              const ClusterFn& cluster_fn,
                              const KSelectOptions& options = {});

/// SelectK with PAM as the clusterer: the same result as passing
/// `[&](size_t k) { return Pam(dist, k); }`, with one PamBuild for the
/// whole sweep instead of one per k.
Result<KSelectResult> SelectKWithPam(const stats::DistanceMatrix& dist,
                                     const KSelectOptions& options = {});

}  // namespace blaeu::cluster
