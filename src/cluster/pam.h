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
/// Each step is one pass over the dense matrix's rows: for each point o in
/// ascending order, every candidate c adds o's term from row o's entry c,
/// two candidates per step (stats::ForEachCandidate). So every candidate's
/// sum adds its terms in ascending point order, the order of a scan of its
/// own row, and is the same double.
std::vector<size_t> PamBuild(const stats::DistanceMatrix& dist, size_t k);

/// \brief PAM's SWAP phase from `medoids` (1 ≤ size ≤ n distinct points,
/// e.g. a prefix of PamBuild).
///
/// Repeatedly applies the single best (medoid, candidate) exchange until
/// none lowers the objective, for at most 50 passes, using the FastPAM1
/// delta computation (Schubert & Rousseeuw 2019): each candidate's swap
/// deltas for all k medoids come from one shared gain plus one correction
/// per medoid, so a SWAP pass costs O(n^2) instead of O(k n^2) while
/// choosing exactly the same swaps. A pass reads each row once, like a
/// BUILD step, with the same ascending point order per candidate sum and
/// the same two-candidate step; the accumulators hold n × (k+1) doubles.
ClusteringResult PamSwap(const stats::DistanceMatrix& dist,
                         std::vector<size_t> medoids);

/// Assigns every row of `features` to its nearest medoid (row indices) by
/// Euclidean distance, computed against the medoid rows gathered into one
/// block; returns labels (index into `medoids`), the summed cost and the
/// medoid silhouette, all from the same n x k distances. PamSwap's result
/// is this assignment over its matrix.
ClusteringResult AssignToMedoids(const stats::Matrix& features,
                                 const std::vector<size_t>& medoids);

}  // namespace blaeu::cluster
