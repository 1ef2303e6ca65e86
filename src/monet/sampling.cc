#include "monet/sampling.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"

namespace blaeu::monet {

namespace {

/// One tally for every sampler so dashboards see total sampling pressure.
void CountSampled(const char* sampler, size_t rows) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.counter("monet.sampling.rows_sampled")
      ->Add(static_cast<int64_t>(rows));
  registry.counter(std::string("monet.sampling.") + sampler + ".draws")
      ->Increment();
}

}  // namespace

SelectionVector UniformSampleIndices(size_t n, size_t k, Rng* rng) {
  std::vector<size_t> picks = rng->SampleWithoutReplacement(n, k);
  std::vector<uint32_t> rows(picks.begin(), picks.end());
  std::sort(rows.begin(), rows.end());
  CountSampled("uniform", rows.size());
  return SelectionVector(std::move(rows));
}

SelectionVector SampleFromSelection(const SelectionVector& base, size_t k,
                                    Rng* rng) {
  if (k >= base.size()) return base;
  std::vector<size_t> picks = rng->SampleWithoutReplacement(base.size(), k);
  std::vector<uint32_t> rows;
  rows.reserve(k);
  for (size_t p : picks) rows.push_back(base[p]);
  std::sort(rows.begin(), rows.end());
  CountSampled("selection", rows.size());
  return SelectionVector(std::move(rows));
}

MultiScaleSampler::MultiScaleSampler(size_t n, Rng* rng) : permutation_(n) {
  std::iota(permutation_.begin(), permutation_.end(), 0);
  rng->Shuffle(&permutation_);
}

SelectionVector MultiScaleSampler::SampleAtMost(
    const SelectionVector& selection, size_t k) const {
  if (selection.size() <= k) return selection;
  std::vector<bool> member(permutation_.size(), false);
  for (uint32_t row : selection.rows()) member[row] = true;
  std::vector<uint32_t> rows;
  rows.reserve(k);
  for (uint32_t row : permutation_) {
    if (member[row]) {
      rows.push_back(row);
      if (rows.size() == k) break;
    }
  }
  std::sort(rows.begin(), rows.end());
  CountSampled("multiscale", rows.size());
  return SelectionVector(std::move(rows));
}

}  // namespace blaeu::monet
