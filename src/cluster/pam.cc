#include "cluster/pam.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/metrics.h"

namespace blaeu::cluster {

using stats::DistanceMatrix;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cap on SWAP passes; each pass scans all (medoid, non-medoid) pairs.
constexpr size_t kMaxSwapPasses = 50;

/// Calls `visit(i, m1, d1, d2)` for every point i, with d1 and d2 its
/// distances to its nearest and second-nearest medoid and m1 the nearest
/// one's index into `medoids` (the first, on a tie); `dist(i, j)` is the
/// distance between points i and j.
template <typename Dist, typename Visit>
void ForEachNearestTwo(size_t n, const std::vector<size_t>& medoids,
                       const Dist& dist, const Visit& visit) {
  const size_t k = medoids.size();
  const size_t* med = medoids.data();
  for (size_t i = 0; i < n; ++i) {
    // Selects instead of branches: which medoid is nearest depends on the
    // data, and a mispredicted branch costs more than a cheap distance.
    double d1 = kInf, d2 = kInf;
    int best_m = 0;
    for (size_t m = 0; m < k; ++m) {
      const double d = dist(i, med[m]);
      best_m = d < d1 ? static_cast<int>(m) : best_m;
      d2 = std::min(d2, std::max(d1, d));
      d1 = std::min(d1, d);
    }
    visit(i, best_m, d1, d2);
  }
}

/// Labels, cost and medoid silhouette for a fixed medoid set, with
/// `dist(i, j)` the distance between points i and j. A point tied between
/// medoids takes the first.
template <typename Dist>
ClusteringResult Assign(size_t n, const std::vector<size_t>& medoids,
                        const Dist& dist) {
  ClusteringResult out;
  out.medoids = medoids;
  out.labels.assign(n, 0);
  const size_t k = medoids.size();
  const size_t* med = medoids.data();
  double cost = 0.0, silhouette = 0.0;
  size_t scored = 0;
  ForEachNearestTwo(n, medoids, dist,
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

/// sums[c] = term(0, At(0, c)) + term(1, At(1, c)) + … + term(n-1,
/// At(n-1, c)) for every point c, added in that order, from one
/// front-to-back pass over the triangle (see PamBuild in pam.h).
template <typename Term>
std::vector<double> StreamedSums(const DistanceMatrix& dist,
                                 const Term& term) {
  const size_t n = dist.size();
  std::vector<double> sums(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* row = dist.RowPtr(i);
    const size_t len = n - 1 - i;
    double* later = sums.data() + i + 1;
    for (size_t t = 0; t < len; ++t) later[t] += term(i, row[t]);
    double sum = sums[i] + term(i, 0.0);
    for (size_t t = 0; t < len; ++t) sum += term(i + 1 + t, row[t]);
    sums[i] = sum;
  }
  return sums;
}

}  // namespace

std::vector<size_t> PamBuild(const DistanceMatrix& dist, size_t k) {
  const size_t n = dist.size();
  k = std::min(k, n);
  std::vector<size_t> medoids;
  if (k == 0) return medoids;
  std::vector<bool> is_medoid(n, false);

  // First medoid: minimal total distance to all points.
  std::vector<double> total =
      StreamedSums(dist, [](size_t, double d) { return d; });
  size_t best_first = 0;
  double best_total = kInf;
  for (size_t c = 0; c < n; ++c) {
    if (total[c] < best_total) {
      best_total = total[c];
      best_first = c;
    }
  }
  medoids.push_back(best_first);
  is_medoid[best_first] = true;

  // nearest[i]: distance from i to its closest chosen medoid.
  std::vector<double> nearest(n);
  for (size_t i = 0; i < n; ++i) nearest[i] = dist.At(i, best_first);

  while (medoids.size() < k) {
    // A point that would not improve adds +0.0, which leaves the
    // (never negative) sum's bits as skipping it would.
    std::vector<double> gain = StreamedSums(dist, [&](size_t o, double d) {
      const double improvement = nearest[o] - d;
      return improvement > 0 ? improvement : 0.0;
    });
    size_t best_c = 0;
    double best_gain = -kInf;
    for (size_t c = 0; c < n; ++c) {
      if (!is_medoid[c] && gain[c] > best_gain) {
        best_gain = gain[c];
        best_c = c;
      }
    }
    medoids.push_back(best_c);
    is_medoid[best_c] = true;
    for (size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], dist.At(i, best_c));
    }
  }
  return medoids;
}

ClusteringResult AssignToMedoids(size_t n, const std::vector<size_t>& medoids,
                                 const RowDistanceFn& dist_fn) {
  return Assign(n, medoids, dist_fn);
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
  std::vector<double> nearest(n), second(n);
  std::vector<size_t> nearest_idx(n);
  auto at = [&](size_t i, size_t j) { return dist.At(i, j); };
  auto recompute_neighbors = [&]() {
    ForEachNearestTwo(n, medoids, at,
                      [&](size_t i, int m1, double d1, double d2) {
      nearest[i] = d1;
      second[i] = d2;
      nearest_idx[i] = static_cast<size_t>(m1);
    });
  };
  // FastPAM1 terms of point o for a candidate at distance d. Removing a
  // medoid other than o's: o moves to the candidate only if it is closer
  // (gain g). Removing o's own medoid: o goes to the candidate or to its
  // second choice, so the correction replaces g with that exact change.
  auto gain = [&](size_t o, double d) {
    return d < nearest[o] ? d - nearest[o] : 0.0;
  };
  auto correction = [&](size_t o, double d, double g) {
    return (std::min(d, second[o]) - nearest[o]) - g;
  };
  // Per candidate c: shared[c] sums every point's gain, and
  // removal[m * n + c] the corrections of the points whose medoid is m;
  // swapping medoid m for c changes the cost by shared[c] + that sum.
  std::vector<double> shared(n), removal(k * n), own(k);

  size_t swaps = 0;
  for (size_t iter = 0; iter < kMaxSwapPasses; ++iter) {
    recompute_neighbors();
    std::fill(shared.begin(), shared.end(), 0.0);
    std::fill(removal.begin(), removal.end(), 0.0);
    double best_delta = -1e-12;  // strictly improving swaps only
    size_t best_m = 0, best_c = 0;
    for (size_t i = 0; i < n; ++i) {
      const double* row = dist.RowPtr(i);
      const size_t len = n - 1 - i;
      // Candidates j > i take point i's terms.
      double* shared_later = shared.data() + i + 1;
      double* removal_later = removal.data() + nearest_idx[i] * n + i + 1;
      for (size_t t = 0; t < len; ++t) {
        const double g = gain(i, row[t]);
        shared_later[t] += g;
        removal_later[t] += correction(i, row[t], g);
      }
      if (is_medoid[i]) continue;
      // Candidate i takes its diagonal term, then points j > i. Its sums
      // are then complete, and candidates complete in ascending order.
      double sum = shared[i];
      for (size_t m = 0; m < k; ++m) own[m] = removal[m * n + i];
      auto add = [&](size_t o, double d) {
        const double g = gain(o, d);
        sum += g;
        own[nearest_idx[o]] += correction(o, d, g);
      };
      add(i, 0.0);
      for (size_t t = 0; t < len; ++t) add(i + 1 + t, row[t]);
      for (size_t m = 0; m < k; ++m) {
        if (sum + own[m] < best_delta) {
          best_delta = sum + own[m];
          best_m = m;
          best_c = i;
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
  return Assign(n, medoids, at);
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
