#include "linalg/csc_matrix.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace bcclap::linalg {

CscSymmetricMatrix::CscSymmetricMatrix(std::size_t n,
                                       std::vector<Triplet> triplets) {
  n_ = n;
  for (const Triplet& t : triplets) {
    if (t.row >= n || t.col >= n) {
      throw std::invalid_argument(
          "CscSymmetricMatrix: triplet (" + std::to_string(t.row) + ", " +
          std::to_string(t.col) + ") out of range for dimension " +
          std::to_string(n));
    }
  }
  // Keep the upper triangle only; a symmetric triplet list carries every
  // off-diagonal twice and the mirror copy is redundant.
  auto end = std::remove_if(triplets.begin(), triplets.end(),
                            [](const Triplet& t) { return t.row > t.col; });
  triplets.erase(end, triplets.end());
  // Column-major, row-minor order groups duplicates adjacently for the
  // coalescing pass.
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.col != b.col ? a.col < b.col : a.row < b.row;
            });
  col_ptr_.assign(n + 1, 0);
  for (std::size_t k = 0; k < triplets.size(); ++k) {
    const Triplet& t = triplets[k];
    if (k > 0 && triplets[k - 1].row == t.row && triplets[k - 1].col == t.col) {
      values_.back() += t.value;
      continue;
    }
    ++col_ptr_[t.col + 1];
    row_index_.push_back(t.row);
    values_.push_back(t.value);
  }
  for (std::size_t j = 0; j < n; ++j) col_ptr_[j + 1] += col_ptr_[j];
}

CscSymmetricMatrix CscSymmetricMatrix::from_symmetric_csr(
    const CsrMatrix& a, std::size_t drop_trailing) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument(
        "CscSymmetricMatrix::from_symmetric_csr: matrix is " +
        std::to_string(a.rows()) + " x " + std::to_string(a.cols()) +
        ", expected square");
  }
  if (drop_trailing > a.rows()) {
    throw std::invalid_argument(
        "CscSymmetricMatrix::from_symmetric_csr: cannot drop " +
        std::to_string(drop_trailing) + " of " + std::to_string(a.rows()) +
        " rows");
  }
  const std::size_t n = a.rows() - drop_trailing;
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_index();
  const auto& vals = a.values();
  CscSymmetricMatrix m;
  m.n_ = n;
  m.col_ptr_.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = rp[j]; k < rp[j + 1]; ++k) {
      if (ci[k] <= j) ++m.col_ptr_[j + 1];
    }
  }
  for (std::size_t j = 0; j < n; ++j) m.col_ptr_[j + 1] += m.col_ptr_[j];
  m.row_index_.resize(m.col_ptr_[n]);
  m.values_.resize(m.col_ptr_[n]);
  std::size_t out = 0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = rp[j]; k < rp[j + 1]; ++k) {
      if (ci[k] <= j) {
        m.row_index_[out] = ci[k];
        m.values_[out] = vals[k];
        ++out;
      }
    }
  }
  return m;
}

Vec CscSymmetricMatrix::diagonal() const {
  Vec d(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      if (row_index_[k] == j) d[j] += values_[k];
    }
  }
  return d;
}

Vec CscSymmetricMatrix::multiply(const Vec& x) const {
  assert(x.size() == n_);
  Vec y(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      const std::size_t i = row_index_[k];
      const double v = values_[k];
      y[i] += v * x[j];
      if (i != j) y[j] += v * x[i];
    }
  }
  return y;
}

DenseMatrix CscSymmetricMatrix::to_dense() const {
  DenseMatrix a(n_, n_);
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      const std::size_t i = row_index_[k];
      a(i, j) += values_[k];
      if (i != j) a(j, i) += values_[k];
    }
  }
  return a;
}

}  // namespace bcclap::linalg
