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

/// Manhattan (L1) distance.
double ManhattanDistance(const double* a, const double* b, size_t dims);

/// \brief Gower dissimilarity for mixed data with missing values.
///
/// Feature f contributes |a_f - b_f| / range_f for numeric features and
/// 0/1 mismatch for categorical ones; features where either side is missing
/// (encoded as NaN) are skipped and the sum is averaged over the features
/// actually compared. Result in [0, 1]; rows with no comparable feature get
/// distance 1.
class GowerDistance {
 public:
  /// \param is_categorical  per-feature flag
  /// \param ranges          per-feature range (numeric features; ignored for
  ///                        categorical). Zero ranges contribute 0.
  GowerDistance(std::vector<bool> is_categorical, std::vector<double> ranges);

  /// Fits ranges from the data (NaN-aware) with the given categorical mask.
  static GowerDistance Fit(const Matrix& data,
                           std::vector<bool> is_categorical);

  double operator()(const double* a, const double* b) const;

  size_t dims() const { return is_categorical_.size(); }

 private:
  std::vector<bool> is_categorical_;
  std::vector<double> ranges_;
};

/// \brief Condensed symmetric distance matrix (upper triangle, no diagonal).
class DistanceMatrix {
 public:
  /// Pairwise Euclidean distances between rows of `data`.
  static DistanceMatrix Euclidean(const Matrix& data);

  /// Pairwise Gower distances with a fitted metric.
  static DistanceMatrix Gower(const Matrix& data, const GowerDistance& gower);

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
