// Partitioning Around Medoids (Kaufman & Rousseeuw 1990), the clustering
// algorithm Blaeu uses for both themes and maps: "We chose Partitioning
// Around Medoids (PAM) because it is accurate, well established and fast
// enough" (paper §3).
#pragma once

#include "common/status.h"
#include "cluster/clustering.h"
#include "stats/distance.h"

namespace blaeu::cluster {

/// \brief Exact PAM on a precomputed distance matrix: PamSwap from the
/// medoids of PamBuild.
///
/// Invalid when k == 0 or k > n.
Result<ClusteringResult> Pam(const stats::DistanceMatrix& dist, size_t k);

/// \brief PAM's BUILD phase: greedily seeds min(k, n) medoids, in the
/// order chosen (first: the point with minimal total distance; then: the
/// one with maximal aggregate cost reduction).
///
/// BUILD is greedy, so BUILD(k) is exactly the first k medoids of
/// BUILD(k_max): a k sweep (SelectKWithPam) runs it once and seeds every
/// candidate k from a prefix.
///
/// Each step is one front-to-back pass over the distance triangle
/// (DistanceMatrix::RowPtr) that fills every candidate's sum at once:
/// pair (i, j) adds point i's term to candidate j and point j's term to
/// candidate i. Candidate c thus receives points 0 … c-1 from the rows
/// before its own, then its zero-distance diagonal term, then points
/// c+1 … n-1 from its row: ascending point order, the order in which a
/// column scan adds them, so every sum is the same double.
std::vector<size_t> PamBuild(const stats::DistanceMatrix& dist, size_t k);

/// \brief PAM's SWAP phase from `medoids` (1 ≤ size ≤ n distinct points,
/// e.g. a prefix of PamBuild).
///
/// Repeatedly applies the single best (medoid, candidate) exchange until
/// none lowers the objective, for at most 50 passes, using the FastPAM1
/// delta computation (Schubert & Rousseeuw 2019): each candidate's swap
/// deltas for all k medoids come from one shared gain plus one correction
/// per medoid, so a SWAP pass costs O(n^2) instead of O(k n^2) while
/// choosing exactly the same swaps. A pass reads the triangle once, like a
/// BUILD step, with the same ascending point order per candidate sum; the
/// accumulators hold n × (k+1) doubles.
ClusteringResult PamSwap(const stats::DistanceMatrix& dist,
                         std::vector<size_t> medoids);

/// Assigns each of `n` points to its nearest medoid under `dist_fn`;
/// returns labels (index into `medoids`), the summed cost and the medoid
/// silhouette, all from the same n x k distances. PamSwap's result is this
/// assignment over its matrix.
ClusteringResult AssignToMedoids(size_t n, const std::vector<size_t>& medoids,
                                 const RowDistanceFn& dist_fn);

}  // namespace blaeu::cluster
