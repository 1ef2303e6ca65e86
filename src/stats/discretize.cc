#include "stats/discretize.h"

#include <algorithm>

namespace blaeu::stats {

Discretizer Discretizer::EqualFrequency(std::vector<double> values,
                                        size_t num_bins) {
  Discretizer d;
  if (values.empty() || num_bins <= 1) return d;
  // The cut ranks ascend, so each nth_element only searches above the
  // previous rank, and a repeated rank (n < num_bins) is already in place.
  const size_t n = values.size();
  auto unsorted = values.begin();
  auto nth = values.begin();
  for (size_t i = 1; i < num_bins; ++i) {
    nth = values.begin() + std::min(i * n / num_bins, n - 1);
    if (nth >= unsorted) {
      std::nth_element(unsorted, nth, values.end());
      unsorted = nth + 1;
    }
    if (d.cuts_.empty() || *nth > d.cuts_.back()) d.cuts_.push_back(*nth);
  }
  // A cut equal to the max would leave an empty last bin; drop it.
  const double max = *std::max_element(nth, values.end());
  while (!d.cuts_.empty() && d.cuts_.back() >= max) d.cuts_.pop_back();
  return d;
}

int Discretizer::Bin(double v) const {
  // The cuts below v: the index of the first cut >= v, without a branch to
  // mispredict over the few cuts there are.
  int bin = 0;
  for (double cut : cuts_) bin += cut < v;
  return bin;
}

}  // namespace blaeu::stats
