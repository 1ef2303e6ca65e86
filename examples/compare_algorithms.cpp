// Compare map-detection algorithms side by side.
//
// The paper argues the pipeline's strength is decoupling cluster
// *detection* from cluster *description*: "we can use arbitrarily
// sophisticated cluster detection algorithms" while "Blaeu's results are
// always interpretable" (§3). This example builds the same map with the
// two detectors kAuto switches between at clara_threshold, PAM and CLARA,
// and reports clusters, silhouette, tree fidelity, latency and accuracy vs
// planted truth.
//
// Run:  ./compare_algorithms [rows]

#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "core/map_builder.h"
#include "core/render.h"
#include "stats/metrics.h"
#include "workloads/gaussian.h"

using namespace blaeu;

int main(int argc, char** argv) {
  size_t rows = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 2000;
  workloads::MixtureSpec spec;
  spec.rows = rows;
  spec.num_clusters = 4;
  spec.dims = 5;
  spec.separation = 7.0;
  spec.with_categorical = true;
  auto data = workloads::MakeGaussianMixture(spec);
  std::printf("Mixture: %zu rows, 4 planted clusters, 5 numeric + 1 "
              "categorical column\n\n",
              rows);
  std::printf("%16s %9s %11s %10s %11s %12s\n", "algorithm", "clusters",
              "silhouette", "fidelity", "latency_ms", "ari_vs_truth");

  struct Case {
    const char* name;
    core::MapAlgorithm algo;
  } cases[] = {
      {"pam", core::MapAlgorithm::kPam},
      {"clara", core::MapAlgorithm::kClara},
  };
  core::DataMap last_map;
  for (const Case& c : cases) {
    core::MapOptions opt;
    opt.algorithm = c.algo;
    opt.sample_size = 1500;
    opt.k_min = 2;
    opt.k_max = 6;
    Timer timer;
    auto map = core::BuildMap(*data.table, opt);
    double ms = timer.ElapsedMillis();
    if (!map.ok()) {
      std::printf("%16s failed: %s\n", c.name,
                  map.status().ToString().c_str());
      continue;
    }
    // Leaf partition vs planted truth.
    std::vector<int> partition(rows, -1);
    for (int leaf : map->LeafIds()) {
      auto sel = map->region(leaf).predicate.Evaluate(*data.table);
      if (!sel.ok()) continue;
      for (uint32_t r : sel->rows()) {
        partition[r] = map->region(leaf).cluster_label;
      }
    }
    std::printf("%16s %9zu %11.3f %10.3f %11.1f %12.3f\n", c.name,
                map->num_clusters, map->silhouette, map->tree_fidelity, ms,
                stats::AdjustedRandIndex(partition,
                                         data.truth.row_clusters));
    last_map = std::move(map).ValueOrDie();
  }
  std::printf("\nBoth detectors flow through the same CART description, "
              "so the map stays interpretable regardless of the detector:\n\n%s",
              core::RenderMap(last_map).c_str());
  return 0;
}
