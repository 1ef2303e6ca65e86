// Experiment C5: the interpretability tax of the decision-tree description
// (paper §3: "The downside of our approach is that it induces a loss of
// accuracy: the decision tree only approximates the real partitions
// detected during the clustering step").
//
// Table: CART fidelity to the PAM labels as tree depth grows, for several
// cluster counts, on the Hollywood table (mixed types) and a Gaussian
// mixture. Shallow trees = readable maps but lower fidelity.

#include <cstdio>

#include "cluster/pam.h"
#include "core/preprocess.h"
#include "stats/distance.h"
#include "tree/cart.h"
#include "workloads/gaussian.h"
#include "workloads/hollywood.h"

using namespace blaeu;

namespace {

void Sweep(const char* name, const monet::Table& table, size_t sample_rows) {
  monet::SelectionVector sel = monet::SelectionVector::All(
      std::min(sample_rows, table.num_rows()));
  auto pre = core::Preprocess(table, sel);
  if (!pre.ok()) {
    std::printf("preprocess failed: %s\n", pre.status().ToString().c_str());
    return;
  }
  auto dist = stats::DistanceMatrix::Euclidean(pre->features);

  std::printf("== C5 on %s (%zu rows, %zu features) ==\n", name,
              pre->features.rows(), pre->features.cols());
  std::printf("%6s %8s %12s %10s\n", "k", "depth", "fidelity", "leaves");
  for (size_t k : {2, 3, 4, 6}) {
    auto clustering = cluster::Pam(dist, k);
    if (!clustering.ok()) continue;
    for (size_t depth : {1, 2, 3, 4, 6, 8}) {
      tree::CartOptions opt;
      opt.max_depth = depth;
      opt.min_samples_leaf = 5;
      auto model = tree::CartModel::Train(table, pre->rows,
                                          clustering->labels, opt);
      if (!model.ok()) continue;
      std::printf("%6zu %8zu %12.3f %10zu\n", k, depth, model->fidelity(),
                  model->NumLeaves());
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Blaeu bench: decision-tree description fidelity (C5)\n\n");
  {
    auto data = workloads::MakeHollywood();
    Sweep("hollywood (mixed types)", *data.table, 900);
  }
  {
    workloads::MixtureSpec spec;
    spec.rows = 1000;
    spec.num_clusters = 4;
    spec.dims = 6;
    spec.separation = 6.0;
    auto data = workloads::MakeGaussianMixture(spec);
    Sweep("gaussian-4", *data.table, 1000);
  }
  std::printf("Expected shape: fidelity rises with depth and saturates; "
              "depth 3-4 already approximates the clustering well (the "
              "paper's \"loss of accuracy\" stays small), while depth 1-2 "
              "pays a visible tax for extreme readability.\n");
  return 0;
}
