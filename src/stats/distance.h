// Distances between preprocessed tuples, and condensed distance matrices
// for the k-medoid algorithms.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/matrix.h"

namespace blaeu::stats {

/// Euclidean distance between two rows of equal length.
double EuclideanDistance(const double* a, const double* b, size_t dims);

/// Squared Euclidean distance.
double SquaredEuclideanDistance(const double* a, const double* b,
                                size_t dims);

/// \brief Condensed symmetric distance matrix (upper triangle, no diagonal).
class DistanceMatrix {
 public:
  /// Pairwise Euclidean distances between rows of `data`.
  static DistanceMatrix Euclidean(const Matrix& data);

  explicit DistanceMatrix(size_t n) : n_(n), d_(n * (n - 1) / 2, 0.0) {}

  size_t size() const { return n_; }

  double At(size_t i, size_t j) const {
    if (i == j) return 0.0;
    return d_[Index(i, j)];
  }
  void Set(size_t i, size_t j, double v) { d_[Index(i, j)] = v; }

  /// Read-only view of row i of the triangle: the n-1-i distances
  /// At(i, i+1), …, At(i, n-1), contiguous. Rows are stored one after the
  /// other for i = 0 … n-1, so reading RowPtr(0), RowPtr(1), … front to
  /// back walks the whole triangle once in storage order, meeting pair
  /// (i, j) before every pair (i', j') with i < i', or i == i' and j < j'.
  const double* RowPtr(size_t i) const { return d_.data() + Index(i, i + 1); }

 private:
  size_t Index(size_t i, size_t j) const {
    if (i > j) std::swap(i, j);
    // Condensed index of pair (i, j), i < j, row-major over the upper
    // triangle.
    return n_ * i - (i * (i + 1)) / 2 + (j - i - 1);
  }
  size_t n_;
  std::vector<double> d_;
};

}  // namespace blaeu::stats
