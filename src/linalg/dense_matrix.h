// Row-major dense matrix with the handful of operations the reproduction
// needs: products, transposes, LDL^T solves (via cholesky.h) and symmetric
// eigensolves (via eigen.h). Used for exact baselines and verification; the
// distributed algorithms themselves operate on CSR matrices.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/context.h"
#include "linalg/vector_ops.h"

namespace bcclap::linalg {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  // Contiguous row access for the blocked kernels (row-major storage);
  // row r is data()[r * cols() .. r * cols() + cols()).
  double* row_data(std::size_t r) { return &data_[r * cols_]; }
  const double* row_data(std::size_t r) const { return &data_[r * cols_]; }
  // The whole storage, rows() * cols() entries (elementwise panel updates).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  // Column extraction/insertion for the multi-RHS panel APIs (a panel is a
  // rows x k matrix whose columns are independent right-hand sides; the
  // storage is row-major, so the triangular solves gather a column into a
  // contiguous vector, solve, and scatter it back). Both throw
  // std::invalid_argument in every build when c >= cols(), and
  // set_column when v.size() != rows().
  Vec column(std::size_t c) const;
  void set_column(std::size_t c, const Vec& v);
  static DenseMatrix from_columns(const std::vector<Vec>& cols);

  // Parallel kernels, dispatched on ctx's pool with ctx's chunking policy
  // (chunk boundaries stay a pure function of the shape and the policy, so
  // results are bit-identical at any worker count of the same context).
  Vec multiply(const common::Context& ctx, const Vec& x) const;
  Vec multiply_transpose(const common::Context& ctx, const Vec& x) const;
  DenseMatrix multiply(const common::Context& ctx,
                       const DenseMatrix& other) const;

  DenseMatrix transpose() const;

  // Frobenius norm of (this - other); used by tests.
  double diff_frobenius(const DenseMatrix& other) const;

  bool is_symmetric(double tol = 1e-9) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Column-wise multi-RHS panel operator: maps an n x k panel to an n x k
// panel with column j of the output a function of column j of the input
// only. The batched iterative drivers (cg.h, chebyshev.h) are built on
// operators of this shape.
using PanelOperator = std::function<DenseMatrix(const DenseMatrix&)>;

}  // namespace bcclap::linalg
