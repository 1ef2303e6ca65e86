// Unit tests for distance functions and matrices.
#include "stats/distance.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.h"

namespace blaeu::stats {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

Matrix Gaussian(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix data(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t f = 0; f < cols; ++f) data.At(i, f) = rng.NextGaussian();
  }
  return data;
}

TEST(EuclideanTest, KnownValues) {
  double a[] = {0, 0};
  double b[] = {3, 4};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b, 2), 5.0);
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(a, b, 2), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, a, 2), 0.0);
}

TEST(EuclideanTest, DistancesToMatchOneAtATimeBitForBit) {
  // Counts 0-9 cover no block, one and two blocks of four rows, and every
  // tail; dims 1-41 cover the feature widths of the built-in tables.
  for (size_t dims = 1; dims <= 41; ++dims) {
    const Matrix data = Gaussian(10, dims, dims);
    for (size_t count = 0; count <= 9; ++count) {
      SCOPED_TRACE("dims " + std::to_string(dims) + " count " +
                   std::to_string(count));
      std::vector<double> out(count + 1, -1.0);
      EuclideanDistancesTo(data.RowPtr(0), data.RowPtr(1), count, dims,
                           out.data());
      for (size_t r = 0; r < count; ++r) {
        EXPECT_EQ(Bits(out[r]),
                  Bits(EuclideanDistance(data.RowPtr(0), data.RowPtr(1 + r),
                                         dims)))
            << "row " << r;
      }
      EXPECT_EQ(out[count], -1.0);  // nothing written past the block
    }
  }
}

TEST(DistanceMatrixTest, EveryPairMatchesEuclideanDistanceBitForBit) {
  const Matrix data = Gaussian(70, 5, 3);
  const DistanceMatrix d = DistanceMatrix::Euclidean(data);
  for (size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(Bits(d.At(i, i)), Bits(0.0));
    for (size_t j = 0; j < data.rows(); ++j) {
      if (i == j) continue;
      ASSERT_EQ(Bits(d.At(i, j)),
                Bits(EuclideanDistance(data.RowPtr(i), data.RowPtr(j), 5)))
          << "pair " << i << ", " << j;
    }
  }
}

TEST(DistanceMatrixTest, SetWritesBothHalves) {
  DistanceMatrix d(3);
  d.Set(2, 0, 1.5);
  EXPECT_EQ(d.At(0, 2), 1.5);
  EXPECT_EQ(d.At(2, 0), 1.5);
  EXPECT_EQ(d.RowPtr(0)[2], 1.5);
  EXPECT_EQ(d.At(1, 1), 0.0);
}

TEST(DistanceMatrixTest, SymmetricWithZeroDiagonal) {
  Matrix data(4, 2);
  for (size_t i = 0; i < 4; ++i) {
    data.At(i, 0) = static_cast<double>(i);
    data.At(i, 1) = static_cast<double>(i * i);
  }
  DistanceMatrix d = DistanceMatrix::Euclidean(data);
  EXPECT_EQ(d.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(d.At(i, i), 0.0);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(d.At(i, j), d.At(j, i));
    }
  }
  EXPECT_DOUBLE_EQ(d.At(0, 1), EuclideanDistance(data.RowPtr(0),
                                                 data.RowPtr(1), 2));
}

TEST(DistanceMatrixTest, TriangleInequalityHolds) {
  Matrix data(5, 3);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t f = 0; f < 3; ++f) {
      data.At(i, f) = static_cast<double>((i * 7 + f * 3) % 11);
    }
  }
  DistanceMatrix d = DistanceMatrix::Euclidean(data);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      for (size_t k = 0; k < 5; ++k) {
        EXPECT_LE(d.At(i, j), d.At(i, k) + d.At(k, j) + 1e-12);
      }
    }
  }
}

TEST(MatrixTest, TakeRows) {
  Matrix m(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    m.At(i, 0) = static_cast<double>(i);
    m.At(i, 1) = static_cast<double>(i * 10);
  }
  Matrix t = m.TakeRows({2, 0});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_DOUBLE_EQ(t.At(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(t.At(1, 0), 0.0);
}

}  // namespace
}  // namespace blaeu::stats
