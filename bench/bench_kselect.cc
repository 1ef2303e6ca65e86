// Experiment C4: silhouette-driven choice of k (paper §3: "we generate
// several partitionings with different numbers of clusters, and keep the
// one with the best score").
//
// Table: for each planted k, separation and cluster sizing, how often the
// sweep recovers the true k (over several seeds), scoring each k by the
// exact mean silhouette or by the medoid silhouette PAM's assignment
// already holds. Equal sizing draws every cluster alike; unequal sizing
// draws cluster c with weight c + 1, so at k = 6 the smallest cluster
// holds about 1/21 of the rows.

#include <cstdio>

#include "cluster/kselect.h"
#include "cluster/pam.h"
#include "common/timer.h"
#include "stats/distance.h"
#include "stats/silhouette.h"
#include "workloads/gaussian.h"

using namespace blaeu;

namespace {

struct Outcome {
  size_t hits = 0;
  size_t trials = 0;
  double total_ms = 0;
};

Outcome Run(size_t planted_k, double separation, bool unequal, bool medoid) {
  Outcome out;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    workloads::MixtureSpec spec;
    spec.rows = 600;
    spec.num_clusters = planted_k;
    spec.dims = 4;
    spec.separation = separation;
    if (unequal) {
      for (size_t c = 0; c < planted_k; ++c) {
        spec.weights.push_back(static_cast<double>(c + 1));
      }
    }
    spec.seed = seed * 100 + planted_k;
    auto data = workloads::MakeGaussianMixture(spec);
    stats::Matrix features(spec.rows, spec.dims);
    for (size_t r = 0; r < spec.rows; ++r) {
      for (size_t c = 0; c < spec.dims; ++c) {
        features.At(r, c) = data.table->column(c)->doubles()[r];
      }
    }
    auto dist = stats::DistanceMatrix::Euclidean(features);
    Timer timer;
    // One BUILD seeds every k, as in SelectKWithPam; the two scorings are
    // two ScoreFns over the same sweep.
    const std::vector<size_t> build = cluster::PamBuild(dist, 8);
    auto result = cluster::SweepK(
        2, 8,
        [&](size_t k) -> Result<cluster::ClusteringResult> {
          return cluster::PamSwap(
              dist, std::vector<size_t>(build.begin(), build.begin() + k));
        },
        [&](size_t, const cluster::ClusteringResult& r) {
          return medoid ? r.medoid_silhouette
                        : stats::MeanSilhouette(dist, r.labels);
        },
        1);
    out.total_ms += timer.ElapsedMillis();
    ++out.trials;
    if (result.ok() && result->best_k == planted_k) ++out.hits;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("Blaeu bench: silhouette k-selection (C4)\n\n");
  std::printf("%10s %12s %8s %10s %14s %14s %12s\n", "planted_k",
              "separation", "sizes", "scoring", "recovered", "recovery_rate",
              "avg_ms");
  for (size_t k : {2, 3, 4, 5, 6}) {
    for (double separation : {1.5, 2.5, 4.0, 8.0}) {
      for (bool unequal : {false, true}) {
        for (bool medoid : {false, true}) {
          Outcome o = Run(k, separation, unequal, medoid);
          std::printf("%10zu %12.1f %8s %10s %10zu/%zu %14.2f %12.1f\n", k,
                      separation, unequal ? "unequal" : "equal",
                      medoid ? "medoid" : "exact", o.hits, o.trials,
                      static_cast<double>(o.hits) /
                          static_cast<double>(o.trials),
                      o.total_ms / static_cast<double>(o.trials));
        }
      }
    }
  }
  std::printf("\nExpected shape: both scores recover every planted k at "
              "separations 4 and 8; at 1.5 and 2.5, and with unequal "
              "sizes, recovery falls, and the two scores can part. The "
              "medoid score adds no distance evaluation to the sweep.\n");
  return 0;
}
