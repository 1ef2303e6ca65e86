#include "stats/discretize.h"

#include <algorithm>
#include <cmath>

namespace blaeu::stats {

Discretizer Discretizer::EqualFrequency(const std::vector<double>& values,
                                        size_t num_bins) {
  Discretizer d;
  if (values.empty() || num_bins <= 1) return d;
  std::vector<double> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 1; i < num_bins; ++i) {
    size_t idx = (i * sorted.size()) / num_bins;
    if (idx >= sorted.size()) idx = sorted.size() - 1;
    double cut = sorted[idx];
    if (d.cuts_.empty() || cut > d.cuts_.back()) d.cuts_.push_back(cut);
  }
  // A cut equal to the max would leave an empty last bin; drop it.
  while (!d.cuts_.empty() && d.cuts_.back() >= sorted.back()) {
    d.cuts_.pop_back();
  }
  return d;
}

int Discretizer::Bin(double v) const {
  // First cut strictly greater than v gives the bin.
  auto it = std::lower_bound(cuts_.begin(), cuts_.end(), v);
  return static_cast<int>(it - cuts_.begin());
}

}  // namespace blaeu::stats
