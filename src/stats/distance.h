// Distances between preprocessed tuples, dense distance matrices for the
// k-medoid algorithms, and the two-lane step their candidate loops share.
#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "stats/matrix.h"

namespace blaeu::stats {

/// Euclidean distance between two rows of equal length.
double EuclideanDistance(const double* a, const double* b, size_t dims);

/// Squared Euclidean distance.
double SquaredEuclideanDistance(const double* a, const double* b,
                                size_t dims);

/// out[r] = EuclideanDistance(x, rows + r * dims, dims) for r in
/// [0, count), bit for bit: `rows` is a contiguous block of `count` rows,
/// taken four at a time with each sum still added in dimension order.
void EuclideanDistancesTo(const double* x, const double* rows, size_t count,
                          size_t dims, double* out);

/// \brief Dense symmetric distance matrix: n × n, row-major, zero diagonal.
class DistanceMatrix {
 public:
  /// Pairwise Euclidean distances between rows of `data`, on the calling
  /// thread: CLARA builds one per sub-sample inside a k task of its sweep.
  static DistanceMatrix Euclidean(const Matrix& data);

  explicit DistanceMatrix(size_t n) : n_(n), d_(n * n, 0.0) {}

  size_t size() const { return n_; }

  double At(size_t i, size_t j) const { return d_[i * n_ + j]; }
  /// Sets the distance between distinct points i and j, both halves.
  void Set(size_t i, size_t j, double v) {
    d_[i * n_ + j] = v;
    d_[j * n_ + i] = v;
  }

  /// Row i: the n distances At(i, 0), …, At(i, n-1), contiguous. By
  /// symmetry it is also column i, so a pass over RowPtr(0), RowPtr(1), …
  /// that adds row o's entry c to candidate c's sum gives every candidate
  /// its terms in ascending point order, the order of a scan of its own
  /// row.
  const double* RowPtr(size_t i) const { return d_.data() + i * n_; }

 private:
  size_t n_;
  std::vector<double> d_;
};

/// Two doubles side by side (the GCC/Clang vector extension), one per
/// candidate: arithmetic, comparisons and `?:` selects act lane by lane.
typedef double Pair __attribute__((vector_size(16)));

/// The double or Pair at `p`, which needs no alignment.
template <typename T>
T Load(const double* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Writes a double or Pair to `p`, which needs no alignment.
template <typename T>
void Store(double* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

/// Calls step(c, zero) over candidates [0, n): for c = 0, 2, 4, … with
/// `zero` the Pair of +0.0 covering c and c + 1, then once with `zero` the
/// double +0.0 for an odd last candidate. `step` reads and writes at c
/// through Load<decltype(zero)> and Store, so one generic body serves both
/// widths and each lane computes what the scalar step does.
template <typename Step>
void ForEachCandidate(size_t n, const Step& step) {
  size_t c = 0;
  for (; c + 2 <= n; c += 2) step(c, Pair{});
  if (c < n) step(c, 0.0);
}

}  // namespace blaeu::stats
