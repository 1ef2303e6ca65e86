// PAM vs CLARA on the map's clustering stage.
// Shows the latency crossover that justifies the paper's "when the data is
// too large, Blaeu creates the maps with CLARA", and the accuracy each
// algorithm pays (ARI vs planted clusters, reported as counters).

#include <benchmark/benchmark.h>

#include "cluster/clara.h"
#include "cluster/pam.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "stats/distance.h"
#include "stats/metrics.h"
#include "workloads/gaussian.h"

using namespace blaeu;

namespace {

struct Fixture {
  stats::Matrix features;
  std::vector<int> truth;
};

const Fixture& MixtureCached(size_t rows) {
  static std::map<size_t, Fixture>* cache = new std::map<size_t, Fixture>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    workloads::MixtureSpec spec;
    spec.rows = rows;
    spec.num_clusters = 4;
    spec.dims = 6;
    spec.separation = 7.0;
    spec.seed = rows;
    auto data = workloads::MakeGaussianMixture(spec);
    Fixture f;
    f.features = stats::Matrix(rows, 6);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < 6; ++c) {
        f.features.At(r, c) = data.table->column(c)->doubles()[r];
      }
    }
    f.truth = data.truth.row_clusters;
    it = cache->emplace(rows, std::move(f)).first;
  }
  return it->second;
}

void BM_Pam(benchmark::State& state) {
  const Fixture& f = MixtureCached(static_cast<size_t>(state.range(0)));
  double ari = 0;
  for (auto _ : state) {
    ScopedTimer latency(&obs::MetricsRegistry::Global(),
                        "bench.pam_seconds");
    auto dist = stats::DistanceMatrix::Euclidean(f.features);
    auto result = cluster::Pam(dist, 4);
    if (!result.ok()) state.SkipWithError("pam failed");
    ari = stats::AdjustedRandIndex(result->labels, f.truth);
    benchmark::DoNotOptimize(result);
  }
  state.counters["ari"] = ari;
}

void BM_Clara(benchmark::State& state) {
  const Fixture& f = MixtureCached(static_cast<size_t>(state.range(0)));
  const size_t n = f.features.rows();
  auto dist_fn = [&f](size_t i, size_t j) {
    return stats::EuclideanDistance(f.features.RowPtr(i),
                                    f.features.RowPtr(j), f.features.cols());
  };
  double ari = 0;
  cluster::ClaraOptions opt;
  for (auto _ : state) {
    ScopedTimer latency(&obs::MetricsRegistry::Global(),
                        "bench.clara_seconds");
    opt.seed++;
    auto result = cluster::Clara(n, dist_fn, 4, opt);
    if (!result.ok()) state.SkipWithError("clara failed");
    ari = stats::AdjustedRandIndex(result->labels, f.truth);
    benchmark::DoNotOptimize(result);
  }
  state.counters["ari"] = ari;
}

// PAM is O(n^2) memory/time: cap its sweep; CLARA goes further.
BENCHMARK(BM_Pam)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_Clara)->Arg(500)->Arg(1000)->Arg(2000)->Arg(8000)->Arg(32000)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace

BENCHMARK_MAIN();
