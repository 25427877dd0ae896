// Dense LDL^T factorization of a symmetric positive definite matrix.
//
// Split out of linalg/cholesky.h so the sparse factorization
// (linalg/sparse_ldlt.h) can reuse the blocked dense kernel for its
// supernodal tail without an include cycle; cholesky.h re-exports this
// header, so historical include sites compile unchanged.
//
// Storage: one packed, column-major lower triangle (LAPACK's 'L' packed
// layout). Column j holds L(j..n-1, j) from the diagonal down, with D(j)
// in the diagonal slot in place of L's unit diagonal — n(n+1)/2 doubles,
// the factor's whole numeric payload. The input is copied into that
// buffer and factored in place; no n x n workspace is kept.
//
// `factor` is a blocked right-looking factorization: the panel solve and
// the trailing-matrix tiles fan out over the execution context's worker
// pool (common/context.h) with fixed tile boundaries, so factors are
// byte-identical at any thread count. The diagonal block runs down its
// packed columns; the panel runs two-lane kernels, and the trailing
// update register blocks (4 rows x 4 columns in two-lane registers, or
// 8 x 4 in four-lane registers on a CPU with AVX2), over a staged k-major
// copy of the rows below the block. All of them interleave independent
// entries but keep every entry's summation order. The forward sweep is
// right-looking, down column k once y_k is final; the backward sweep is
// a dot product down column i.
#pragma once

#include <optional>
#include <vector>

#include "common/context.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"

namespace bcclap::linalg {

class LdltFactor {
 public:
  // An empty factor (dim() == 0): every solve throws the dimension error
  // until a refactor() succeeds.
  LdltFactor() = default;

  // Factors a symmetric positive definite matrix on ctx's pool (only the
  // lower triangle of `a` is read; a non-square `a` throws
  // std::invalid_argument). Returns nullopt if a pivot falls
  // below `pivot_tol` relative to the largest diagonal magnitude (matrix
  // not PD to working precision). Degenerate inputs — a 0x0 matrix or an
  // all-zero diagonal — are rejected explicitly rather than left to
  // threshold underflow. A fresh factor's refactor(ctx, a, pivot_tol).
  static std::optional<LdltFactor> factor(const common::Context& ctx,
                                          const DenseMatrix& a,
                                          double pivot_tol = 1e-12);

  // factor() on a matrix handed over as its packed lower triangle
  // (`lower` holds packed_size(n) doubles, entry (i, j) at
  // packed_index(n, i, j)): the buffer becomes the factor's storage and
  // is factored in place, so the caller's assembly buffer is the only
  // copy. Same contract and bytes as factor() on the matrix it packs;
  // throws std::invalid_argument on a wrong-sized buffer. Inner-layer
  // surface: the sparse factorization assembles its Schur tail here.
  static std::optional<LdltFactor> factor_packed(const common::Context& ctx,
                                                 std::size_t n,
                                                 std::vector<double> lower,
                                                 double pivot_tol = 1e-12);

  // factor() in place: the one dense kernel. Reuses this factor's packed
  // storage (reallocating only when the dimension changes), so a caller
  // that factors a stream of same-sized matrices — the IPM's Gram system
  // at every Newton step — allocates once. On success the factor holds
  // exactly the bytes factor(ctx, a, pivot_tol) would; on failure
  // (factor() would return nullopt) it is left empty, dim() == 0, and
  // returns false. Throws like factor() on a non-square `a`, leaving the
  // factor empty.
  bool refactor(const common::Context& ctx, const DenseMatrix& a,
                double pivot_tol = 1e-12);

  // Throws std::invalid_argument on a wrong-sized right-hand side: this
  // is public solve surface, and an assert-only check would turn a bad
  // size into a silent out-of-bounds read in Release builds.
  Vec solve(const Vec& b) const;

  // Multi-RHS panel solve: b is n x k, one right-hand side per column.
  // Columns run four at a time through a shared-read panel kernel (each
  // column of L is read once per four columns, every column in its own
  // SIMD lane), and the groups fan out over ctx's pool with disjoint
  // column writes. Column grouping never changes the arithmetic, so the
  // result is byte-identical to k sequential solve() calls at any thread
  // count. A k = 1 panel is solve() run in the output, off the pool.
  DenseMatrix solve_many(const common::Context& ctx,
                         const DenseMatrix& b) const;

  std::size_t dim() const { return n_; }

  // Bytes of numeric payload this factor keeps resident — the packed
  // triangle, packed_size(n) doubles with D on its diagonal — the
  // per-entry accounting the factorization cache's LRU budget is charged
  // in. Approximate on purpose (container headers excluded). A failed
  // refactor keeps its buffer for the next attempt, and it stays counted.
  std::size_t resident_bytes() const { return l_.size() * sizeof(double); }

  // Doubles in the packed lower triangle of an n x n matrix, and the
  // offset of entry (i, j), j <= i < n, in it.
  static std::size_t packed_size(std::size_t n) { return n * (n + 1) / 2; }
  static std::size_t packed_index(std::size_t n, std::size_t i,
                                  std::size_t j) {
    return j * (2 * n - 1 - j) / 2 + i;
  }

  // solve() on dim() contiguous doubles, in place and unchecked — the
  // sparse hybrid factorization (sparse_ldlt.h) runs its dense tail on a
  // slice of its own work vector through this (inner-layer surface).
  void solve_in_place(double* y) const;

 private:
  std::size_t n_ = 0;
  // Packed column-major lower triangle: unit lower triangular L below the
  // diagonal, D on it (see the storage note above).
  std::vector<double> l_;

  // The kernel: factors the packed lower triangle of an n x n matrix held
  // in l_ in place. Sets n_ on success; false (n_ stays 0) on a pivot
  // failure or a degenerate input.
  bool factor_in_place(const common::Context& ctx, std::size_t n,
                       double pivot_tol);

  // solve_in_place on an n x 4 row-major panel, one column per lane.
  void solve_panel_in_place(double* p) const;
};

}  // namespace bcclap::linalg
