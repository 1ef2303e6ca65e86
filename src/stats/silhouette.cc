#include "stats/silhouette.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace blaeu::stats {

std::vector<double> SilhouetteValues(const DistanceMatrix& dist,
                                     const std::vector<int>& labels) {
  const size_t n = labels.size();
  assert(dist.size() == n);
  int k = 0;
  for (int l : labels) k = std::max(k, l + 1);
  std::vector<size_t> cluster_size(k, 0);
  for (int l : labels) ++cluster_size[l];

  // sums[c * n + i]: distance from i to the members of cluster c, from one
  // front-to-back pass over the triangle. Pair (i, j) adds to j's sum for
  // i's cluster and to i's sum for j's, so each sum adds its terms in
  // ascending order of the other point, as a scan of row i would.
  std::vector<double> out(n, 0.0);
  std::vector<double> sums(static_cast<size_t>(k) * n, 0.0), own(k);
  for (size_t i = 0; i < n; ++i) {
    const double* row = dist.RowPtr(i);
    const size_t len = n - 1 - i;
    const int li = labels[i];
    double* later = sums.data() + li * n + i + 1;
    for (size_t t = 0; t < len; ++t) later[t] += row[t];
    if (cluster_size[li] <= 1) continue;  // singleton convention: s = 0
    for (int c = 0; c < k; ++c) own[c] = sums[c * n + i];
    for (size_t t = 0; t < len; ++t) own[labels[i + 1 + t]] += row[t];
    double a = own[li] / static_cast<double>(cluster_size[li] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (int c = 0; c < k; ++c) {
      if (c == li || cluster_size[c] == 0) continue;
      b = std::min(b, own[c] / static_cast<double>(cluster_size[c]));
    }
    if (!std::isfinite(b)) continue;  // only one non-empty cluster: s = 0
    double denom = std::max(a, b);
    out[i] = denom > 0 ? (b - a) / denom : 0.0;
  }
  return out;
}

double MeanSilhouette(const DistanceMatrix& dist,
                      const std::vector<int>& labels) {
  std::vector<double> values = SilhouetteValues(dist, labels);
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double MeanSilhouetteEuclidean(const Matrix& data,
                               const std::vector<int>& labels) {
  return MeanSilhouette(DistanceMatrix::Euclidean(data), labels);
}

namespace {

/// Stratified sub-sample of point indices: proportional per-cluster quotas
/// with a floor of 2 for clusters of size >= 2 (a silhouette needs within-
/// cluster company).
std::vector<size_t> StratifiedSubsample(const std::vector<int>& labels,
                                        size_t target, Rng* rng) {
  std::unordered_map<int, std::vector<size_t>> by_cluster;
  for (size_t i = 0; i < labels.size(); ++i) {
    by_cluster[labels[i]].push_back(i);
  }
  const double n = static_cast<double>(labels.size());
  std::vector<size_t> picks;
  for (auto& [label, members] : by_cluster) {
    size_t quota = static_cast<size_t>(
        std::round(static_cast<double>(target) *
                   static_cast<double>(members.size()) / n));
    if (members.size() >= 2) quota = std::max<size_t>(quota, 2);
    quota = std::min(quota, members.size());
    for (size_t p : rng->SampleWithoutReplacement(members.size(), quota)) {
      picks.push_back(members[p]);
    }
  }
  return picks;
}

}  // namespace

double MonteCarloSilhouette(
    size_t num_rows, const std::vector<int>& labels,
    const std::function<double(size_t, size_t)>& row_distance,
    const MonteCarloSilhouetteOptions& options) {
  assert(labels.size() == num_rows);
  if (num_rows <= options.subsample_size) {
    // Small input: one exact pass.
    DistanceMatrix dist(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      for (size_t j = i + 1; j < num_rows; ++j) {
        dist.Set(i, j, row_distance(i, j));
      }
    }
    return MeanSilhouette(dist, labels);
  }
  Rng rng(options.seed);
  double total = 0.0;
  for (size_t s = 0; s < options.num_subsamples; ++s) {
    std::vector<size_t> picks =
        StratifiedSubsample(labels, options.subsample_size, &rng);
    const size_t m = picks.size();
    DistanceMatrix dist(m);
    std::vector<int> sub_labels(m);
    for (size_t i = 0; i < m; ++i) sub_labels[i] = labels[picks[i]];
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = i + 1; j < m; ++j) {
        dist.Set(i, j, row_distance(picks[i], picks[j]));
      }
    }
    total += MeanSilhouette(dist, sub_labels);
  }
  return total / static_cast<double>(options.num_subsamples);
}

double MonteCarloSilhouette(const Matrix& data, const std::vector<int>& labels,
                            const MonteCarloSilhouetteOptions& options) {
  return MonteCarloSilhouette(
      data.rows(), labels,
      [&](size_t i, size_t j) {
        return EuclideanDistance(data.RowPtr(i), data.RowPtr(j), data.cols());
      },
      options);
}

}  // namespace blaeu::stats
