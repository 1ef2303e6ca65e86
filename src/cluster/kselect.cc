#include "cluster/kselect.h"

#include <algorithm>

#include "cluster/pam.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace blaeu::cluster {

using stats::DistanceMatrix;

Result<KSelectResult> SelectK(const DistanceMatrix& dist,
                              const ClusterFn& cluster_fn,
                              const KSelectOptions& options) {
  const size_t n = dist.size();
  if (n < 2) return Status::Invalid("need at least 2 points to select k");
  size_t k_min = std::max<size_t>(2, options.k_min);
  size_t k_max = std::min(options.k_max, n - 1);
  if (k_min > k_max) {
    return Status::Invalid("empty k range after clamping");
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("cluster.kselect.sweeps")->Increment();
  registry.counter("cluster.kselect.candidates")
      ->Add(static_cast<int64_t>(k_max - k_min + 1));
  ScopedTimer latency(registry.histogram("cluster.kselect.sweep_seconds"));

  // One task per candidate k (clustering + scoring are independent across
  // k), then a serial ascending-k pick that reproduces the sequential
  // loop exactly: first error propagates, lowest k with a strictly better
  // score than every smaller k wins.
  struct Candidate {
    Status status = Status::OK();
    ClusteringResult result;
    double score = -1.0;
  };
  const size_t count = k_max - k_min + 1;
  std::vector<Candidate> candidates(count);
  ParallelFor(
      0, count, 1,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          const size_t k = k_min + i;
          auto r = cluster_fn(k);
          if (!r.ok()) {
            candidates[i].status = r.status();
            continue;
          }
          ClusteringResult result = std::move(r).ValueOrDie();
          std::vector<size_t> sizes = ClusterSizes(result.labels);
          bool degenerate =
              sizes.size() != k ||
              std::any_of(sizes.begin(), sizes.end(),
                          [](size_t s) { return s == 0; });
          double score;
          if (degenerate) {
            score = -1.0;
          } else if (options.monte_carlo) {
            score = stats::MonteCarloSilhouette(
                n, result.labels,
                [&](size_t i2, size_t j2) { return dist.At(i2, j2); },
                options.mc_options);
          } else {
            score = stats::MeanSilhouette(dist, result.labels);
          }
          candidates[i].result = std::move(result);
          candidates[i].score = score;
        }
      },
      options.num_threads);

  KSelectResult out;
  out.best_score = -2.0;  // silhouettes live in [-1, 1]
  for (size_t i = 0; i < count; ++i) {
    if (!candidates[i].status.ok()) return candidates[i].status;
    out.scores.push_back(candidates[i].score);
    if (candidates[i].score > out.best_score) {
      out.best_score = candidates[i].score;
      out.best_k = k_min + i;
      out.best = std::move(candidates[i].result);
    }
  }
  return out;
}

Result<KSelectResult> SelectKWithPam(const DistanceMatrix& dist,
                                     const KSelectOptions& options) {
  // BUILD is greedy, so BUILD(k) is the first k medoids of BUILD(k_max):
  // one BUILD before the k tasks seeds them all, shared read-only.
  const size_t n = dist.size();
  const std::vector<size_t> build =
      PamBuild(dist, n < 2 ? 0 : std::min(options.k_max, n - 1));
  return SelectK(
      dist,
      [&](size_t k) -> Result<ClusteringResult> {
        return PamSwap(dist,
                       std::vector<size_t>(build.begin(), build.begin() + k));
      },
      options);
}

}  // namespace blaeu::cluster
