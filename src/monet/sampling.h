// Row sampling: the mechanism behind Blaeu's interaction-time latency.
// "After each zoom, Blaeu only takes a few thousand samples from the
// database" (paper §3); the multi-scale sampler keeps one random permutation
// of the table whose prefixes nest, so successive zooms re-sample cheaply.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "monet/selection.h"

namespace blaeu::monet {

/// `k` distinct row ids drawn uniformly from [0, n), sorted ascending.
/// Returns all of [0, n) when k >= n.
SelectionVector UniformSampleIndices(size_t n, size_t k, Rng* rng);

/// `k` distinct rows drawn uniformly from `base`, sorted. Returns `base`
/// itself when k >= base.size().
SelectionVector SampleFromSelection(const SelectionVector& base, size_t k,
                                    Rng* rng);

/// \brief Nested samples of any selection of one table.
///
/// Holds a single random permutation of the table's rows. SampleAtMost()
/// walks it and keeps the first k rows that fall inside the selection, so
/// for one selection the sample of k rows is a subset of the sample of any
/// larger k (the prefixes nest), and a zoom's sample is drawn from the same
/// order as its parent's.
class MultiScaleSampler {
 public:
  /// \param n  number of rows of the underlying table
  MultiScaleSampler(size_t n, Rng* rng);

  /// Up to `k` rows of `selection` (row ids below n), drawn uniformly from
  /// the shared permutation and returned sorted; `selection` itself when it
  /// has at most k rows.
  SelectionVector SampleAtMost(const SelectionVector& selection,
                               size_t k) const;

 private:
  std::vector<uint32_t> permutation_;
};

}  // namespace blaeu::monet
