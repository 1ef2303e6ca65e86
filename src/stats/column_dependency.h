// Statistical dependency between table columns of any type: the edge
// weights of Blaeu's dependency graph (Figure 2). The measure is normalized
// Miller-Madow mutual information, the paper's choice because "it copes
// with mixed values and it is sensitive to non-linear relationships" (§3):
// numeric columns are binned into 5 equal-frequency bins, categorical ones
// are coded by value.
//
// The estimator counts small integer codes instead of hashing values. Each
// column is coded once into [0, k), NULL being one more code, and its
// entropy and support come from that pass. A pair then counts only its
// joint distribution: in a flat kx * ky table when kx * ky <= n (n sampled
// rows), else one x code at a time over x's rows bucketed by code, so no
// pair needs more than O(n + kx + ky) memory, even on high-cardinality
// strings with sample_rows = 0. NaN has no order: a NaN cell is coded as
// NULL.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "monet/selection.h"
#include "monet/table.h"

namespace blaeu::stats {

/// Seed of the row sample DependencyMatrix draws.
constexpr uint64_t kDependencySeed = 42;

/// Options for dependency estimation.
struct DependencyOptions {
  /// Rows sampled for estimation, with kDependencySeed (0 = use all rows).
  size_t sample_rows = 4000;
};

/// Discrete encoding of one column over the given rows, in codes [0, k)
/// with k <= rows.size() + 1: categorical values (NULL among them) in order
/// of first appearance, numeric values by equal-frequency bin, with NULL
/// and NaN cells in one code after the bins.
std::vector<uint32_t> EncodeColumnDiscrete(const monet::Column& col,
                                           const std::vector<uint32_t>& rows,
                                           size_t num_bins);

/// \brief Symmetric dependency matrix over the (optionally sampled) table.
///
/// Entry (i, j) is the normalized Miller-Madow MI of columns i and j, in
/// [0, 1]: (H(X) + H(Y) - H(X,Y) - (Kx - 1)(Ky - 1) / 2n) / sqrt(H(X) H(Y)),
/// with plug-in entropies, K the number of codes that occur, and 0 when
/// either column is constant. The diagonal is 1. Row sampling and each
/// column's encoding happen once, shared by all pairs.
Result<std::vector<std::vector<double>>> DependencyMatrix(
    const monet::Table& table, const DependencyOptions& options = {});

}  // namespace blaeu::stats
