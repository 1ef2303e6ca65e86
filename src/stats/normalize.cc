#include "stats/normalize.h"

#include <cmath>
#include <numeric>

namespace blaeu::stats {

Normalizer Normalizer::ZScore(const std::vector<double>& values) {
  if (values.empty()) return Normalizer(0.0, 1.0);
  double mean = std::accumulate(values.begin(), values.end(), 0.0) /
                static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size());
  double stddev = var > 0 ? std::sqrt(var) : 0.0;
  if (stddev == 0.0) return Normalizer(mean, 1.0);
  return Normalizer(mean, 1.0 / stddev);
}

}  // namespace blaeu::stats
