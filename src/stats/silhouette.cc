#include "stats/silhouette.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace blaeu::stats {

std::vector<double> SilhouetteValues(const DistanceMatrix& dist,
                                     const std::vector<int>& labels) {
  const size_t n = labels.size();
  assert(dist.size() == n);
  int k = 0;
  for (int l : labels) k = std::max(k, l + 1);
  std::vector<size_t> cluster_size(k, 0);
  for (int l : labels) ++cluster_size[l];

  // sums[c * n + i]: distance from i to the members of cluster c. Row o
  // adds to the sums of o's cluster, one pass in ascending o, so each sum
  // adds its terms in ascending order of the other point, as a scan of row
  // i would (o = i adds the diagonal's +0.0, which changes no sum).
  std::vector<double> out(n, 0.0);
  std::vector<double> sums(static_cast<size_t>(k) * n, 0.0);
  for (size_t o = 0; o < n; ++o) {
    const double* row = dist.RowPtr(o);
    double* own = sums.data() + labels[o] * n;
    ForEachCandidate(n, [=](size_t i, auto zero) {
      using T = decltype(zero);
      Store(own + i, Load<T>(own + i) + Load<T>(row + i));
    });
  }
  for (size_t i = 0; i < n; ++i) {
    const int li = labels[i];
    if (cluster_size[li] <= 1) continue;  // singleton convention: s = 0
    auto sum_to = [&](int c) { return sums[c * n + i]; };
    double a = sum_to(li) / static_cast<double>(cluster_size[li] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (int c = 0; c < k; ++c) {
      if (c == li || cluster_size[c] == 0) continue;
      b = std::min(b, sum_to(c) / static_cast<double>(cluster_size[c]));
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

}  // namespace blaeu::stats
