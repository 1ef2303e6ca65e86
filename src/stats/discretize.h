// Discretization of continuous values into bins, the first step of the
// mutual-information estimator for numeric columns.
#pragma once

#include <vector>

#include "common/status.h"

namespace blaeu::stats {

/// \brief Maps doubles to integer bin ids.
class Discretizer {
 public:
  /// Equal-frequency (quantile) bins: each bin receives roughly the same
  /// number of training values. Cut i is the value of rank i * n / num_bins
  /// in sorted order, found by partial selection, not a full sort.
  /// Duplicate cut points are merged, so the realized bin count can be
  /// lower than requested. `values` must not hold NaN, which has no order.
  static Discretizer EqualFrequency(std::vector<double> values,
                                    size_t num_bins);

  /// Bin id for one value, in [0, num_bins()).
  int Bin(double v) const;

  /// Realized number of bins (>= 1).
  size_t num_bins() const { return cuts_.size() + 1; }

  /// Upper cut points (ascending); bin i covers (cuts[i-1], cuts[i]].
  const std::vector<double>& cuts() const { return cuts_; }

 private:
  std::vector<double> cuts_;
};

}  // namespace blaeu::stats
