#include "cluster/kselect.h"

#include <algorithm>

#include "cluster/pam.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/silhouette.h"

namespace blaeu::cluster {

using stats::DistanceMatrix;

Result<KSelectResult> SweepK(size_t k_min, size_t k_max,
                             const ClusterFn& cluster_fn,
                             const ScoreFn& score_fn, size_t num_threads) {
  if (k_min > k_max) {
    return Status::Invalid("empty k range: k_min " + std::to_string(k_min) +
                           " > k_max " + std::to_string(k_max));
  }
  const size_t count = k_max - k_min + 1;
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("cluster.kselect.sweeps")->Increment();
  registry.counter("cluster.kselect.candidates")
      ->Add(static_cast<int64_t>(count));
  obs::Span span("cluster.kselect.sweep");

  // One task per candidate k (clustering + scoring are independent across
  // k), then a serial ascending-k pick that reproduces the sequential
  // loop exactly.
  struct Candidate {
    Status status = Status::OK();
    ClusteringResult result;
    double score = -1.0;
  };
  std::vector<Candidate> candidates(count);
  ParallelFor(
      0, count, 1,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          auto r = cluster_fn(k_min + i);
          if (!r.ok()) {
            candidates[i].status = r.status();
            continue;
          }
          candidates[i].result = std::move(r).ValueOrDie();
          candidates[i].score = score_fn(k_min + i, candidates[i].result);
        }
      },
      num_threads);

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
                                     size_t k_max) {
  const size_t n = dist.size();
  if (n < 2) return Status::Invalid("need at least 2 points to select k");
  k_max = std::min(k_max, n - 1);
  // BUILD is greedy, so BUILD(k) is the first k medoids of BUILD(k_max):
  // one BUILD before the sweep seeds every k.
  const std::vector<size_t> build = PamBuild(dist, k_max);
  return SweepK(
      2, k_max,
      [&](size_t k) -> Result<ClusteringResult> {
        return PamSwap(dist,
                       std::vector<size_t>(build.begin(), build.begin() + k));
      },
      [&](size_t k, const ClusteringResult& result) {
        std::vector<size_t> sizes = ClusterSizes(result.labels);
        if (sizes.size() != k ||
            std::any_of(sizes.begin(), sizes.end(),
                        [](size_t s) { return s == 0; })) {
          return -1.0;
        }
        return stats::MeanSilhouette(dist, result.labels);
      },
      /*num_threads=*/1);
}

}  // namespace blaeu::cluster
