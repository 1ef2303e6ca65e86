#include "cluster/pam.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/metrics.h"

namespace blaeu::cluster {

using stats::DistanceMatrix;
using stats::ForEachCandidate;
using stats::Load;
using stats::Matrix;
using stats::Store;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cap on SWAP passes; each pass scans all (medoid, non-medoid) pairs.
constexpr size_t kMaxSwapPasses = 50;

/// Calls `visit(i, m1, d1, d2)` for every point i, with d1 and d2 its
/// distances to its nearest and second-nearest medoid and m1 the nearest
/// one's index into the medoids (the first, on a tie); `to_medoids(i)`
/// returns point i's k distances to the medoids, in medoid order.
template <typename ToMedoids, typename Visit>
void ForEachNearestTwo(size_t n, size_t k, const ToMedoids& to_medoids,
                       const Visit& visit) {
  for (size_t i = 0; i < n; ++i) {
    const double* dist = to_medoids(i);
    // Selects instead of branches: which medoid is nearest depends on the
    // data, and a mispredicted branch costs more than a cheap distance.
    double d1 = kInf, d2 = kInf;
    int best_m = 0;
    for (size_t m = 0; m < k; ++m) {
      const double d = dist[m];
      best_m = d < d1 ? static_cast<int>(m) : best_m;
      d2 = std::min(d2, std::max(d1, d));
      d1 = std::min(d1, d);
    }
    visit(i, best_m, d1, d2);
  }
}

/// Labels, cost and medoid silhouette of n points for a fixed medoid set,
/// with `to_medoids` as in ForEachNearestTwo. A point tied between medoids
/// takes the first.
template <typename ToMedoids>
ClusteringResult Assign(size_t n, const std::vector<size_t>& medoids,
                        const ToMedoids& to_medoids) {
  ClusteringResult out;
  out.medoids = medoids;
  out.labels.assign(n, 0);
  const size_t k = medoids.size();
  const size_t* med = medoids.data();
  double cost = 0.0, silhouette = 0.0;
  size_t scored = 0;
  ForEachNearestTwo(n, k, to_medoids,
                    [&](size_t i, int best_m, double d1, double d2) {
    out.labels[i] = best_m;
    cost += d1;
    // A medoid's d1 is 0, so its term would read 1 whatever the partition.
    if (d1 == 0 && std::find(med, med + k, i) != med + k) return;
    // d2 is infinite at k = 1 and 0 on coincident medoids: both score 0.
    if (d2 > 0 && d2 < kInf) silhouette += 1.0 - d1 / d2;
    ++scored;
  });
  out.total_cost = cost;
  if (scored > 0) {
    out.medoid_silhouette = silhouette / static_cast<double>(scored);
  }
  return out;
}

/// ForEachNearestTwo's `to_medoids` over a distance matrix: point i's
/// distances to the medoids are entries of its row, gathered into `to`.
auto FromRows(const DistanceMatrix& dist, const std::vector<size_t>& medoids,
              std::vector<double>* to) {
  return [&dist, &medoids, to](size_t i) {
    const double* row = dist.RowPtr(i);
    for (size_t m = 0; m < medoids.size(); ++m) (*to)[m] = row[medoids[m]];
    return to->data();
  };
}

}  // namespace

std::vector<size_t> PamBuild(const DistanceMatrix& dist, size_t k) {
  const size_t n = dist.size();
  k = std::min(k, n);
  std::vector<size_t> medoids;
  if (k == 0) return medoids;
  std::vector<bool> is_medoid(n, false);

  // First medoid: minimal total distance to all points.
  std::vector<double> sums(n, 0.0);
  double* sum = sums.data();
  for (size_t o = 0; o < n; ++o) {
    const double* row = dist.RowPtr(o);
    ForEachCandidate(n, [=](size_t c, auto zero) {
      using T = decltype(zero);
      Store(sum + c, Load<T>(sum + c) + Load<T>(row + c));
    });
  }
  size_t best_first = 0;
  double best_total = kInf;
  for (size_t c = 0; c < n; ++c) {
    if (sums[c] < best_total) {
      best_total = sums[c];
      best_first = c;
    }
  }
  medoids.push_back(best_first);
  is_medoid[best_first] = true;

  // nearest[i]: distance from i to its closest chosen medoid.
  const double* first_row = dist.RowPtr(best_first);
  std::vector<double> nearest(first_row, first_row + n);

  while (medoids.size() < k) {
    // Gains: a point that would not improve adds +0.0, which leaves the
    // (never negative) sum's bits as skipping it would.
    std::fill(sums.begin(), sums.end(), 0.0);
    for (size_t o = 0; o < n; ++o) {
      const double* row = dist.RowPtr(o);
      const double near = nearest[o];
      ForEachCandidate(n, [=](size_t c, auto zero) {
        using T = decltype(zero);
        const T improvement = near - Load<T>(row + c);
        Store(sum + c, Load<T>(sum + c) +
                           (improvement > 0 ? improvement : zero));
      });
    }
    size_t best_c = 0;
    double best_gain = -kInf;
    for (size_t c = 0; c < n; ++c) {
      if (!is_medoid[c] && sums[c] > best_gain) {
        best_gain = sums[c];
        best_c = c;
      }
    }
    medoids.push_back(best_c);
    is_medoid[best_c] = true;
    const double* row = dist.RowPtr(best_c);
    for (size_t i = 0; i < n; ++i) nearest[i] = std::min(nearest[i], row[i]);
  }
  return medoids;
}

ClusteringResult AssignToMedoids(const Matrix& features,
                                 const std::vector<size_t>& medoids) {
  const size_t k = medoids.size();
  const size_t dims = features.cols();
  const Matrix block = features.TakeRows(medoids);
  std::vector<double> to(k);
  return Assign(features.rows(), medoids, [&](size_t i) {
    stats::EuclideanDistancesTo(features.RowPtr(i), block.RowPtr(0), k, dims,
                                to.data());
    return to.data();
  });
}

ClusteringResult PamSwap(const DistanceMatrix& dist,
                         std::vector<size_t> medoids) {
  const size_t n = dist.size();
  const size_t k = medoids.size();
  assert(k >= 1 && k <= n);
  std::vector<bool> is_medoid(n, false);
  for (size_t m : medoids) is_medoid[m] = true;

  // nearest/second: distances from each point to its closest and
  // second-closest medoid; nearest_idx: the closest one's index into
  // medoids.
  std::vector<double> nearest(n), second(n), to(k);
  std::vector<size_t> nearest_idx(n);
  auto recompute_neighbors = [&]() {
    ForEachNearestTwo(n, k, FromRows(dist, medoids, &to),
                      [&](size_t i, int m1, double d1, double d2) {
      nearest[i] = d1;
      second[i] = d2;
      nearest_idx[i] = static_cast<size_t>(m1);
    });
  };
  // Per candidate c: shared[c] sums every point's gain, and
  // removal[m * n + c] the corrections of the points whose medoid is m;
  // swapping medoid m for c changes the cost by shared[c] + that sum.
  std::vector<double> shared(n), removal(k * n);

  size_t swaps = 0;
  for (size_t iter = 0; iter < kMaxSwapPasses; ++iter) {
    recompute_neighbors();
    std::fill(shared.begin(), shared.end(), 0.0);
    std::fill(removal.begin(), removal.end(), 0.0);
    double* gains = shared.data();
    for (size_t o = 0; o < n; ++o) {
      const double* row = dist.RowPtr(o);
      double* corrections = removal.data() + nearest_idx[o] * n;
      const double near = nearest[o], next = second[o];
      // FastPAM1 terms of point o for a candidate at distance d. Removing
      // a medoid other than o's: o moves to the candidate only if it is
      // closer (gain g). Removing o's own medoid: o goes to the candidate
      // or to its second choice, so the correction replaces g with that
      // exact change.
      ForEachCandidate(n, [=](size_t c, auto zero) {
        using T = decltype(zero);
        const T d = Load<T>(row + c);
        const T g = d < near ? d - near : zero;
        Store(gains + c, Load<T>(gains + c) + g);
        Store(corrections + c, Load<T>(corrections + c) +
                                   (((next < d ? next : d) - near) - g));
      });
    }
    double best_delta = -1e-12;  // strictly improving swaps only
    size_t best_m = 0, best_c = 0;
    for (size_t c = 0; c < n; ++c) {
      if (is_medoid[c]) continue;
      for (size_t m = 0; m < k; ++m) {
        const double delta = shared[c] + removal[m * n + c];
        if (delta < best_delta) {
          best_delta = delta;
          best_m = m;
          best_c = c;
        }
      }
    }
    if (best_delta >= -1e-12) break;  // local optimum
    is_medoid[medoids[best_m]] = false;
    medoids[best_m] = best_c;
    is_medoid[best_c] = true;
    ++swaps;
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("cluster.pam.runs")->Increment();
  registry.counter("cluster.pam.swap_iterations")
      ->Add(static_cast<int64_t>(swaps));

  // Canonical order: medoids sorted by index so labels are deterministic.
  std::sort(medoids.begin(), medoids.end());
  return Assign(n, medoids, FromRows(dist, medoids, &to));
}

Result<ClusteringResult> Pam(const DistanceMatrix& dist, size_t k) {
  const size_t n = dist.size();
  if (k == 0) return Status::Invalid("k must be >= 1");
  if (k > n) {
    return Status::Invalid("k = " + std::to_string(k) + " exceeds n = " +
                           std::to_string(n));
  }
  return PamSwap(dist, PamBuild(dist, k));
}

}  // namespace blaeu::cluster
