#include "cluster/clara.h"

#include <algorithm>
#include <limits>

#include "cluster/pam.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distance.h"

namespace blaeu::cluster {

/// Kaufman and Rousseeuw's number of sub-samples.
constexpr size_t kNumSamples = 5;

Result<ClusteringResult> Clara(size_t n, const RowDistanceFn& dist_fn,
                               size_t k, uint64_t seed) {
  if (k == 0) return Status::Invalid("k must be >= 1");
  if (k > n) {
    return Status::Invalid("k = " + std::to_string(k) + " exceeds n = " +
                           std::to_string(n));
  }
  // Kaufman and Rousseeuw's sub-sample size; k <= n, so it holds k points.
  const size_t sample_size = std::min(40 + 2 * k, n);
  // A sub-sample of all n points is the same sorted set every time, so its
  // PAM run and assignment would repeat exactly and the first would win.
  const size_t samples = sample_size == n ? 1 : kNumSamples;

  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("cluster.clara.runs")->Increment();
  registry.counter("cluster.clara.samples")
      ->Add(static_cast<int64_t>(samples));
  registry.counter("cluster.clara.rows_assigned")
      ->Add(static_cast<int64_t>(n * samples));
  obs::Span span("cluster.clara.run");

  Rng rng(seed);
  ClusteringResult best;
  best.total_cost = std::numeric_limits<double>::infinity();

  for (size_t s = 0; s < samples; ++s) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(n, sample_size);
    std::sort(sample.begin(), sample.end());
    // Distance matrix restricted to the sample.
    stats::DistanceMatrix dist(sample.size());
    for (size_t i = 0; i < sample.size(); ++i) {
      for (size_t j = i + 1; j < sample.size(); ++j) {
        dist.Set(i, j, dist_fn(sample[i], sample[j]));
      }
    }
    BLAEU_ASSIGN_OR_RETURN(ClusteringResult local, Pam(dist, k));
    // Lift sample-local medoids to global indices and extend to all points.
    std::vector<size_t> medoids;
    medoids.reserve(k);
    for (size_t m : local.medoids) medoids.push_back(sample[m]);
    ClusteringResult extended = AssignToMedoids(n, medoids, dist_fn);
    if (extended.total_cost < best.total_cost) best = std::move(extended);
  }
  return best;
}

}  // namespace blaeu::cluster
