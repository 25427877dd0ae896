// Compressed sparse column storage for symmetric matrices.
//
// Only the upper triangle is stored: column j holds the entries (i, j)
// with i <= j, which by symmetry is also row j of the lower triangle.
// This is the input format of the sparse LDL^T factorization
// (linalg/sparse_ldlt.h) — the same layout Uno's CSCSymmetricMatrix and
// the classic LDL/CHOLMOD interfaces use — and it is built straight from
// a graph Laplacian or a symmetric CSR matrix without ever materializing
// a dense n x n array.
//
// Duplicate entries are additive everywhere in this library (see
// CsrMatrix::from_raw); the builders here either keep duplicates (CSR
// ingest) or coalesce them by summation (triplet ingest) — both describe
// the same matrix to every consumer.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"

namespace bcclap::linalg {

class CscSymmetricMatrix {
 public:
  CscSymmetricMatrix() = default;

  // Builds from triplets describing a symmetric matrix. Entries may carry
  // one triangle or both: every (i, j, v) with i > j is dropped (its
  // mirror (j, i, v) carries the value), so feeding a full symmetric
  // triplet list yields the same matrix as feeding only its upper
  // triangle. Duplicates are coalesced by summation. Throws
  // std::invalid_argument on a row or column index >= n.
  CscSymmetricMatrix(std::size_t n, std::vector<Triplet> triplets);

  // Upper triangle of a symmetric CSR matrix: row j of the CSR is column
  // j of the CSC by symmetry, so entries of row j with column <= j land
  // in CSC column j. Duplicate CSR entries are preserved (additive).
  // `drop_trailing` takes the leading (n - drop) x (n - drop) principal
  // submatrix instead — the grounding step of the Laplacian factors.
  // Throws std::invalid_argument on a non-square `a` or
  // drop_trailing > a.rows().
  static CscSymmetricMatrix from_symmetric_csr(const CsrMatrix& a,
                                               std::size_t drop_trailing = 0);

  std::size_t dim() const { return n_; }
  // Stored upper-triangle entries (duplicates counted as stored).
  std::size_t nnz() const { return values_.size(); }

  // Column access: entries of column j are (row_index_[k], values_[k])
  // for k in [col_ptr_[j], col_ptr_[j+1]), rows <= j, unordered.
  const std::vector<std::size_t>& col_ptr() const { return col_ptr_; }
  const std::vector<std::size_t>& row_index() const { return row_index_; }
  const std::vector<double>& values() const { return values_; }

  // Diagonal with duplicates summed.
  Vec diagonal() const;

  // Symmetric matvec y = A x (sequential; test/verification helper).
  Vec multiply(const Vec& x) const;

  // Full symmetric dense image (test helper; defeats the point otherwise).
  DenseMatrix to_dense() const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> col_ptr_;
  std::vector<std::size_t> row_index_;
  std::vector<double> values_;
};

}  // namespace bcclap::linalg
