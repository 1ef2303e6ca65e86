#include "stats/distance.h"

#include <cmath>

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

void EuclideanDistancesTo(const double* x, const double* rows, size_t count,
                          size_t dims, double* out) {
  size_t r = 0;
  // Four independent sums: one pass over x feeds four rows.
  for (; r + 4 <= count; r += 4) {
    const double* a = rows + r * dims;
    const double* b = a + dims;
    const double* c = b + dims;
    const double* e = c + dims;
    double sa = 0.0, sb = 0.0, sc = 0.0, se = 0.0;
    for (size_t f = 0; f < dims; ++f) {
      const double da = x[f] - a[f], db = x[f] - b[f];
      const double dc = x[f] - c[f], de = x[f] - e[f];
      sa += da * da;
      sb += db * db;
      sc += dc * dc;
      se += de * de;
    }
    out[r] = std::sqrt(sa);
    out[r + 1] = std::sqrt(sb);
    out[r + 2] = std::sqrt(sc);
    out[r + 3] = std::sqrt(se);
  }
  for (; r < count; ++r) out[r] = EuclideanDistance(x, rows + r * dims, dims);
}

DistanceMatrix DistanceMatrix::Euclidean(const Matrix& data) {
  const size_t n = data.rows();
  const size_t dims = data.cols();
  DistanceMatrix out(n);
  double* d = out.d_.data();
  // Row i's pairs (i, j > i), mirrored into column i of the later rows.
  for (size_t i = 0; i < n; ++i) {
    double* row = d + i * n;
    EuclideanDistancesTo(data.RowPtr(i), data.RowPtr(i) + dims, n - 1 - i,
                         dims, row + i + 1);
    for (size_t j = i + 1; j < n; ++j) d[j * n + i] = row[j];
  }
  return out;
}

}  // namespace blaeu::stats
