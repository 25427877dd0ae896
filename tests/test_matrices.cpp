#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "support/fixtures.h"

namespace bcclap::linalg {
namespace {

using testsupport::test_context;

TEST(DenseMatrix, IdentityMultiply) {
  const auto eye = DenseMatrix::identity(3);
  const Vec x{1, 2, 3};
  EXPECT_EQ(eye.multiply(test_context(), x), x);
  EXPECT_EQ(eye.multiply_transpose(test_context(), x), x);
}

TEST(DenseMatrix, MultiplyAndTranspose) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  EXPECT_EQ(a.multiply(test_context(), Vec{1, 1, 1}), (Vec{6, 15}));
  EXPECT_EQ(a.multiply_transpose(test_context(), Vec{1, 1}), (Vec{5, 7, 9}));
  const auto at = a.transpose();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
}

TEST(DenseMatrix, MatrixProduct) {
  DenseMatrix a(2, 2), b(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  b(0, 0) = 0;
  b(0, 1) = 1;
  b(1, 0) = 1;
  b(1, 1) = 0;
  const auto c = a.multiply(test_context(), b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(DenseMatrix, SymmetryCheck) {
  DenseMatrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  EXPECT_TRUE(a.is_symmetric());
  a(1, 0) = 2.0;
  EXPECT_FALSE(a.is_symmetric());
}

TEST(DenseMatrix, ColumnOutOfRangeThrows) {
  const DenseMatrix a(3, 2);
  EXPECT_EQ(a.column(1).size(), 3u);
  EXPECT_THROW(a.column(2), std::invalid_argument);
}

TEST(DenseMatrix, SetColumnRejectsBadIndexOrLength) {
  DenseMatrix a(3, 2);
  EXPECT_THROW(a.set_column(2, Vec{1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(a.set_column(0, Vec{1, 2}), std::invalid_argument);
  EXPECT_THROW(a.set_column(0, Vec{1, 2, 3, 4}), std::invalid_argument);
  a.set_column(1, Vec{1, 2, 3});
  EXPECT_EQ(a.column(1), (Vec{1, 2, 3}));
}

TEST(CsrMatrix, DuplicateTripletsSum) {
  CsrMatrix m(2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.diagonal(), (Vec{3.0, 5.0}));
}

TEST(CsrMatrix, MatvecMatchesDense) {
  rng::Stream stream(42);
  std::vector<Triplet> trips;
  const std::size_t rows = 17, cols = 9;
  for (int i = 0; i < 60; ++i) {
    trips.push_back({stream.next_below(rows), stream.next_below(cols),
                     stream.next_gaussian()});
  }
  const CsrMatrix sparse(rows, cols, trips);
  const auto dense = sparse.to_dense();
  const auto x = testsupport::gaussian_vector(cols, stream);
  const auto y = testsupport::gaussian_vector(rows, stream);
  const auto s1 = sparse.multiply(test_context(), x);
  const auto d1 = dense.multiply(test_context(), x);
  for (std::size_t i = 0; i < rows; ++i) EXPECT_NEAR(s1[i], d1[i], 1e-12);
  const auto s2 = sparse.multiply_transpose(y);
  const auto d2 = dense.multiply_transpose(test_context(), y);
  for (std::size_t i = 0; i < cols; ++i) EXPECT_NEAR(s2[i], d2[i], 1e-12);
}

TEST(CsrMatrix, TransposeRoundTrip) {
  CsrMatrix m(2, 3, {{0, 2, 7.0}, {1, 0, -3.0}});
  const auto t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  const auto back = t.transpose().to_dense();
  EXPECT_DOUBLE_EQ(back(0, 2), 7.0);
  EXPECT_DOUBLE_EQ(back(1, 0), -3.0);
}

TEST(CsrMatrix, EmptyMatrix) {
  CsrMatrix m(3, 3, {});
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.multiply(test_context(), Vec{1, 2, 3}), (Vec{0, 0, 0}));
}

}  // namespace
}  // namespace bcclap::linalg
