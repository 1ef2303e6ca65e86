#include "cluster/clara.h"

#include <algorithm>
#include <limits>

#include "cluster/pam.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distance.h"

namespace blaeu::cluster {

namespace {

/// Kaufman and Rousseeuw's sub-sample size; for k <= n it holds k points.
size_t SampleSize(size_t n, size_t k) { return std::min(40 + 2 * k, n); }

/// Kaufman and Rousseeuw's 5 sub-samples, or 1 when it holds all n points:
/// that sub-sample is the same sorted set every time, so its PAM run and
/// assignment would repeat exactly and the first would win.
size_t NumSamples(size_t n, size_t k) { return SampleSize(n, k) == n ? 1 : 5; }

}  // namespace

int64_t ClaraDistanceCount(size_t n, size_t k) {
  const size_t m = SampleSize(n, k);
  return static_cast<int64_t>(NumSamples(n, k) * (m * (m - 1) / 2 + n * k));
}

Result<ClusteringResult> Clara(const stats::Matrix& features, size_t k,
                               uint64_t seed) {
  const size_t n = features.rows();
  if (k == 0) return Status::Invalid("k must be >= 1");
  if (k > n) {
    return Status::Invalid("k = " + std::to_string(k) + " exceeds n = " +
                           std::to_string(n));
  }
  const size_t sample_size = SampleSize(n, k);
  const size_t samples = NumSamples(n, k);

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
    BLAEU_ASSIGN_OR_RETURN(
        ClusteringResult local,
        Pam(stats::DistanceMatrix::Euclidean(features.TakeRows(sample)), k));
    // Lift sample-local medoids to global indices and extend to all points.
    std::vector<size_t> medoids;
    medoids.reserve(k);
    for (size_t m : local.medoids) medoids.push_back(sample[m]);
    ClusteringResult extended = AssignToMedoids(features, medoids);
    if (extended.total_cost < best.total_cost) best = std::move(extended);
  }
  return best;
}

}  // namespace blaeu::cluster
