// Statistical dependency between table columns of any type: the edge
// weights of Blaeu's dependency graph (Figure 2). The measure is normalized
// Miller-Madow mutual information, the paper's choice because "it copes
// with mixed values and it is sensitive to non-linear relationships" (§3):
// numeric columns are binned into 5 equal-frequency bins, categorical ones
// are coded by value.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "monet/selection.h"
#include "monet/table.h"

namespace blaeu::stats {

/// Options for dependency estimation.
struct DependencyOptions {
  /// Rows sampled for estimation (0 = use all rows).
  size_t sample_rows = 4000;
  uint64_t seed = 42;
};

/// Discrete encoding of one column over the given rows: numeric columns are
/// equal-frequency binned, categorical values are dictionary-coded, NULLs
/// get their own code (-1).
std::vector<int> EncodeColumnDiscrete(const monet::Column& col,
                                      const std::vector<uint32_t>& rows,
                                      size_t num_bins);

/// \brief Symmetric dependency matrix over the (optionally sampled) table.
///
/// Entry (i, j) is the normalized Miller-Madow MI of columns i and j, in
/// [0, 1]; the diagonal is 1. Row sampling and each column's encoding
/// happen once, shared by all pairs.
Result<std::vector<std::vector<double>>> DependencyMatrix(
    const monet::Table& table, const DependencyOptions& options = {});

}  // namespace blaeu::stats
