// Deterministic random number generation. All stochastic components of the
// library (sampling, CLARA draws, workload generators) draw from a
// blaeu::Rng so that every experiment is reproducible from a single seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace blaeu {

/// \brief Small, fast, seedable PRNG (xoshiro256**).
///
/// Not cryptographic. Streams from distinct seeds are independent enough for
/// simulation use; use Split() to derive a child generator deterministically.
class Rng {
 public:
  /// Seeds the generator. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling (Lemire) to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal variate (Box-Muller, cached pair).
  double NextGaussian();

  /// Gaussian with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// True with probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights must be non-negative with a positive sum.
  size_t NextDiscrete(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) uniformly, in random order.
  /// If k >= n, returns a permutation of [0, n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child generator; advances this generator.
  Rng Split() { return Rng(Next() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace blaeu
