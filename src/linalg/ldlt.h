// Dense LDL^T factorization of a symmetric positive definite matrix.
//
// Split out of linalg/cholesky.h so the sparse factorization
// (linalg/sparse_ldlt.h) can reuse the blocked dense kernel for its
// supernodal tail without an include cycle; cholesky.h re-exports this
// header, so historical include sites compile unchanged.
//
// `factor` is a blocked right-looking factorization: the panel solve and
// the trailing-matrix tiles fan out over the execution context's worker
// pool (common/context.h) with fixed tile boundaries, so factors are
// byte-identical at any thread count. The panel and the trailing update
// run register-blocked two-lane kernels (4 rows x 4 columns per block)
// that interleave independent entries but keep every entry's summation
// order. Each finished entry of L is also mirrored into the otherwise
// unused strict upper triangle, so both triangular sweeps read rows
// contiguously.
#pragma once

#include <optional>

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

  // factor() in place: the one dense kernel. Reuses this factor's L and D
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
  // row of L is read once per four columns, every column in its own SIMD
  // lane), and the groups fan out over ctx's pool with disjoint column
  // writes. Column grouping never changes the arithmetic, so the result
  // is byte-identical to k sequential solve() calls at any thread count.
  // A k = 1 panel is solve() run in the output, off the pool.
  DenseMatrix solve_many(const common::Context& ctx,
                         const DenseMatrix& b) const;

  std::size_t dim() const { return n_; }

  // Bytes of numeric payload this factor keeps resident (L and D) — the
  // per-entry accounting the factorization cache's LRU budget is charged
  // in. Approximate on purpose (container headers excluded).
  std::size_t resident_bytes() const {
    return (l_.rows() * l_.cols() + d_.size()) * sizeof(double);
  }

  // solve() on dim() contiguous doubles, in place and unchecked — the
  // sparse hybrid factorization (sparse_ldlt.h) runs its dense tail on a
  // slice of its own work vector through this (inner-layer surface).
  void solve_in_place(double* y) const;

 private:
  std::size_t n_ = 0;
  // Unit lower triangular L in the lower triangle and on the diagonal;
  // the strict upper triangle mirrors it (l_(i, j) = L(j, i) for j > i).
  DenseMatrix l_;
  Vec d_;  // diagonal

  // solve_in_place on an n x 4 row-major panel, one column per lane.
  void solve_panel_in_place(double* p) const;
};

}  // namespace bcclap::linalg
