#include "stats/distance.h"

#include <cmath>

#include "common/parallel.h"

namespace blaeu::stats {

double SquaredEuclideanDistance(const double* a, const double* b,
                                size_t dims) {
  double sum = 0.0;
  for (size_t i = 0; i < dims; ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double EuclideanDistance(const double* a, const double* b, size_t dims) {
  return std::sqrt(SquaredEuclideanDistance(a, b, dims));
}

DistanceMatrix DistanceMatrix::Euclidean(const Matrix& data) {
  const size_t n = data.rows();
  DistanceMatrix out(n);
  // Row-blocked: each (i, j) entry is written exactly once by the chunk
  // owning row i, so the matrix is identical at any thread count.
  ParallelFor(0, n, 16, [&](size_t row_lo, size_t row_hi) {
    for (size_t i = row_lo; i < row_hi; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        out.Set(i, j,
                EuclideanDistance(data.RowPtr(i), data.RowPtr(j),
                                  data.cols()));
      }
    }
  });
  return out;
}

}  // namespace blaeu::stats
