#include "linalg/dense_matrix.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace bcclap::linalg {

// Chunk sizing comes from ctx.grain (shared with the CSR kernels): chunks
// cover >= ctx.min_work_per_chunk() multiply-adds, with boundaries that
// are a pure function of the matrix shape and the context's policy.

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

namespace {

void check_column(std::size_t c, std::size_t cols, const char* where) {
  if (c >= cols) {
    throw std::invalid_argument(std::string(where) + ": column " +
                                std::to_string(c) + " of a matrix with " +
                                std::to_string(cols) + " columns");
  }
}

}  // namespace

Vec DenseMatrix::column(std::size_t c) const {
  check_column(c, cols_, "DenseMatrix::column");
  Vec v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = data_[r * cols_ + c];
  return v;
}

void DenseMatrix::set_column(std::size_t c, const Vec& v) {
  check_column(c, cols_, "DenseMatrix::set_column");
  if (v.size() != rows_) {
    throw std::invalid_argument(
        "DenseMatrix::set_column: vector has " + std::to_string(v.size()) +
        " entries, matrix has " + std::to_string(rows_) + " rows");
  }
  for (std::size_t r = 0; r < rows_; ++r) data_[r * cols_ + c] = v[r];
}

DenseMatrix DenseMatrix::from_columns(const std::vector<Vec>& cols) {
  if (cols.empty()) return DenseMatrix();
  DenseMatrix m(cols.front().size(), cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) m.set_column(c, cols[c]);
  return m;
}

Vec DenseMatrix::multiply(const common::Context& ctx, const Vec& x) const {
  assert(x.size() == cols_);
  Vec y(rows_, 0.0);
  // Each output row is an independent dot product: embarrassingly parallel
  // and bitwise deterministic at any thread count.
  ctx.parallel_for_chunks(
      0, rows_, ctx.grain(rows_, cols_),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          double s = 0.0;
          const double* row = &data_[r * cols_];
          for (std::size_t c = 0; c < cols_; ++c) s += row[c] * x[c];
          y[r] = s;
        }
      });
  return y;
}

Vec DenseMatrix::multiply_transpose(const common::Context& ctx,
                                    const Vec& x) const {
  assert(x.size() == rows_);
  Vec y(cols_, 0.0);
  if (rows_ * cols_ < ctx.min_work_per_chunk()) {
    for (std::size_t r = 0; r < rows_; ++r) {
      const double xr = x[r];
      if (xr == 0.0) continue;
      const double* row = &data_[r * cols_];
      for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
    }
    return y;
  }
  // Deterministic chunked reduction (common::thread_pool.h): row chunks
  // accumulate into private cols-sized partials merged in chunk order. The
  // chunk count is capped so partial storage and the merge stay small
  // relative to the rows x cols multiply-adds, even for wide matrices.
  constexpr std::size_t kMaxChunks = 64;
  const std::size_t grain = std::max(
      ctx.grain(rows_, cols_), (rows_ + kMaxChunks - 1) / kMaxChunks);
  ctx.parallel_reduce_chunks(
      0, rows_, grain, Vec(cols_, 0.0),
      [&](std::size_t lo, std::size_t hi, Vec& p) {
        for (std::size_t r = lo; r < hi; ++r) {
          const double xr = x[r];
          if (xr == 0.0) continue;
          const double* row = &data_[r * cols_];
          for (std::size_t c = 0; c < cols_; ++c) p[c] += row[c] * xr;
        }
      },
      [&](Vec& p) {
        for (std::size_t c = 0; c < cols_; ++c) y[c] += p[c];
      });
  return y;
}

DenseMatrix DenseMatrix::multiply(const common::Context& ctx,
                                  const DenseMatrix& other) const {
  assert(cols_ == other.rows_);
  DenseMatrix out(rows_, other.cols_);
  // Row-parallel: output row r reads only row r of *this, writes only row r
  // of out. The k-loop order inside a row matches the sequential kernel.
  ctx.parallel_for_chunks(
      0, rows_, ctx.grain(rows_, cols_ * other.cols_),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          for (std::size_t k = 0; k < cols_; ++k) {
            const double v = (*this)(r, k);
            if (v == 0.0) continue;
            for (std::size_t c = 0; c < other.cols_; ++c) {
              out(r, c) += v * other(k, c);
            }
          }
        }
      });
  return out;
}

DenseMatrix DenseMatrix::transpose() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

double DenseMatrix::diff_frobenius(const DenseMatrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double s = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = data_[i] - other.data_[i];
    s += d * d;
  }
  return std::sqrt(s);
}

bool DenseMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c)
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

}  // namespace bcclap::linalg
