// Experiment C3: the exact silhouette (paper §3), the score of theme
// detection's k sweep and of the map quality tests. Reports its latency
// across table sizes; it costs O(n^2) distances, which is why a map scores
// each k by the medoid silhouette of its clustering instead.

#include <benchmark/benchmark.h>

#include <map>

#include "common/rng.h"
#include "stats/silhouette.h"

using namespace blaeu;

namespace {

struct Fixture {
  stats::Matrix data;
  std::vector<int> labels;
};

const Fixture& BlobsCached(size_t n) {
  static std::map<size_t, Fixture>* cache = new std::map<size_t, Fixture>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    Rng rng(n);
    Fixture f;
    f.data = stats::Matrix(n, 4);
    f.labels.resize(n);
    for (size_t i = 0; i < n; ++i) {
      int c = static_cast<int>(i % 3);
      f.labels[i] = c;
      for (size_t d = 0; d < 4; ++d) {
        f.data.At(i, d) = rng.NextGaussian(6.0 * c, 1.0);
      }
    }
    it = cache->emplace(n, std::move(f)).first;
  }
  return it->second;
}

void BM_ExactSilhouette(benchmark::State& state) {
  const Fixture& f = BlobsCached(static_cast<size_t>(state.range(0)));
  double value = 0;
  for (auto _ : state) {
    value = stats::MeanSilhouetteEuclidean(f.data, f.labels);
    benchmark::DoNotOptimize(value);
  }
  state.counters["silhouette"] = value;
}

BENCHMARK(BM_ExactSilhouette)
    ->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
