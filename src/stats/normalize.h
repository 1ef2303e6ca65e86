// Feature normalization for the preprocessing stage ("Blaeu ... normalizes
// the continuous variables", paper §3).
#pragma once

#include <vector>

namespace blaeu::stats {

/// \brief Fitted per-feature affine normalizer.
class Normalizer {
 public:
  /// z-score: (x - mean) / stddev; identity when stddev == 0.
  static Normalizer ZScore(const std::vector<double>& values);

  double Apply(double v) const { return (v - shift_) * scale_; }

 private:
  Normalizer(double shift, double scale) : shift_(shift), scale_(scale) {}
  double shift_;
  double scale_;
};

}  // namespace blaeu::stats
