// Sparse LDL^T factorization with a dense supernodal tail.
//
// The sparsified Laplacians this library factors have O(n / eps^2) edges,
// so the dense LdltFactor's O(n^2) storage and O(n^3) arithmetic are the
// scaling wall (ROADMAP: "break the dense O(n^2) wall"). This factor is
// the sparse-first path behind LaplacianFactor / ComponentLaplacianFactor
// (linalg/cholesky.h), which select it by a size/density rule unless the
// caller pins a backend — see `sparse_path_selected` below.
//
// Pipeline, the classic sparse-direct recipe:
//  1. Fill-reducing ordering: approximate minimum degree on the quotient
//     graph (linalg/amd.h — supervariables, element absorption, mass
//     elimination), with a dense-tail cutoff — once the minimum degree
//     reaches half the remaining vertices (or few vertices remain),
//     further sparse elimination only churns an effectively dense
//     submatrix, so the remaining vertices are deferred to the tail
//     wholesale.
//  2. Symbolic analysis: elimination tree + per-column fill counts via
//     the standard row-subtree traversal, truncated at the tail split t
//     (etree parents strictly increase, so every truncated ancestor is a
//     tail column — the truncation is exact, not a heuristic). The
//     sparse prefix is postordered along the elimination forest, which
//     makes fundamental supernodes — runs of columns with identical
//     below-diagonal pattern — contiguous; supernode boundaries are
//     detected from the etree + fill counts and recorded in sn_ptr_.
//  3. Numeric factorization: up-looking row-by-row sparse LDL^T (the
//     LDL/ldl.c algorithm) for the leading t columns; the Schur
//     complement S = A22 - L21 D1 L21^T is subtracted in supernode
//     panels (dense rank-w dot products over each panel's shared row
//     pattern — the panels are contiguous row-major blocks, not scalar
//     column scatter) and factored by the blocked parallel dense kernel
//     (linalg/ldlt.h). Triangular solves run over the same panels.
//
// Determinism contract: ordering, symbolic and the sparse numeric phase
// are sequential; the Schur subtraction fans out over fixed 64-row bands
// with disjoint writes and a fixed per-band accumulation order; the dense
// tail is the byte-deterministic blocked kernel. Factors and solves are
// therefore byte-identical at any thread count.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/context.h"
#include "linalg/csc_matrix.h"
#include "linalg/dense_matrix.h"
#include "linalg/ldlt.h"
#include "linalg/vector_ops.h"

namespace bcclap::linalg {

// Which factorization backend a LaplacianFactor / component ended up on.
enum class FactorKind {
  kNone,    // nothing to factor (n <= 1 after grounding)
  kDense,   // blocked dense LdltFactor
  kSparse,  // SparseLdltFactor
};

// Backend of the dense/sparse dispatch inside the Laplacian factors.
// kAuto applies the size/density rule below; the force modes pin one
// backend. Callers pass it explicitly: the engine registry's
// "exact-dense" / "exact-sparse" keys pin their backend this way, and no
// process state can override it.
enum class FactorMode { kAuto, kForceDense, kForceSparse };

// Auto-dispatch thresholds: the sparse path takes over only above
// kSparseMinDim (below it the dense kernel's constants win — and keeping
// the bar above 256 pins every historical n=256 bench case to the dense
// path, byte for byte) and below kSparseMaxDensity stored-entry density
// (near-dense inputs would just rebuild the dense matrix with overhead).
inline constexpr std::size_t kSparseMinDim = 384;
inline constexpr double kSparseMaxDensity = 0.25;

// The one threshold rule: true when a system of dimension `dim` with
// stored-entry density `density` belongs on the sparse path. Both the
// factor dispatch below and the engine registry's "auto" tuner apply it.
bool sparse_path_preferred(std::size_t dim, double density);

// The factor dispatch: true when a grounded matrix of dimension `dim`
// with `nnz` stored entries (duplicates counted; heuristic only) should
// be factored on the sparse path under `mode`.
bool sparse_path_selected(std::size_t dim, std::size_t nnz, FactorMode mode);

// Wall-clock and size breakdown of one sparse factorization, surfaced
// through core::RunStats so benches and the service can see where factor
// time goes. The clocks live inside SparseLdltFactor::factor — the
// factorization is the one layer that owns its phases; everything above
// (Laplacian factors, prepared engines, the facade) only aggregates.
// numeric_seconds includes the Schur subtraction and the dense tail.
struct SparseFactorPhases {
  double ordering_seconds = 0.0;
  double symbolic_seconds = 0.0;
  double numeric_seconds = 0.0;
  std::size_t supernodes = 0;  // sparse-prefix supernode panels
  std::size_t fill_nnz = 0;    // nnz(L11) + nnz(L21)

  SparseFactorPhases& operator+=(const SparseFactorPhases& o) {
    ordering_seconds += o.ordering_seconds;
    symbolic_seconds += o.symbolic_seconds;
    numeric_seconds += o.numeric_seconds;
    supernodes += o.supernodes;
    fill_nnz += o.fill_nnz;
    return *this;
  }
};

// Sparse LDL^T factor of a symmetric positive definite matrix given by
// its upper triangle in CSC form.
class SparseLdltFactor {
 public:
  // Factors on ctx's pool. Returns nullopt under the same contract as
  // LdltFactor::factor: empty matrix, all-zero diagonal, or any pivot at
  // or below pivot_tol relative to the largest diagonal magnitude.
  static std::optional<SparseLdltFactor> factor(const common::Context& ctx,
                                                const CscSymmetricMatrix& a,
                                                double pivot_tol = 1e-12);

  Vec solve(const Vec& b) const;

  // Multi-RHS panel solve: the sparse head sweeps fan out per column over
  // ctx's pool, the dense tail runs as one shared-read panel
  // (LdltFactor::solve_many); per-column byte-identical to solve().
  DenseMatrix solve_many(const common::Context& ctx,
                         const DenseMatrix& b) const;

  std::size_t dim() const { return n_; }
  // Columns eliminated by the sparse simplicial phase.
  std::size_t sparse_columns() const { return t_; }
  // Dimension of the dense Schur-complement tail.
  std::size_t tail_dim() const { return n_ - t_; }
  // Stored off-diagonal fill of the sparse phase: nnz(L11) + nnz(L21).
  std::size_t fill_nnz() const {
    return l_rows_.size() + l21_cols_.size();
  }
  // Supernode panels of the sparse prefix (runs of columns with identical
  // below-diagonal pattern); panel s spans columns [sn_ptr_[s], sn_ptr_[s+1]).
  std::size_t supernode_count() const {
    return sn_ptr_.empty() ? 0 : sn_ptr_.size() - 1;
  }
  // Phase breakdown of the factorization that built this object.
  const SparseFactorPhases& phases() const { return phases_; }

  // Resident numeric + index payload (see LdltFactor::resident_bytes);
  // charged against the factorization cache's byte budget.
  std::size_t resident_bytes() const {
    const std::size_t idx =
        (perm_.size() + iperm_.size() + l_colp_.size() + l_rows_.size() +
         l21_rowp_.size() + l21_cols_.size() + sn_ptr_.size()) *
        sizeof(std::size_t);
    const std::size_t num =
        (l_vals_.size() + d_.size() + l21_vals_.size()) * sizeof(double);
    return idx + num + (tail_ ? tail_->resident_bytes() : 0);
  }

 private:
  std::size_t n_ = 0;  // matrix dimension
  std::size_t t_ = 0;  // sparse/dense split: columns [0, t_) are sparse
  std::vector<std::size_t> perm_;   // new index -> original index
  std::vector<std::size_t> iperm_;  // original index -> new index
  // L11: strictly-lower entries of the unit-lower factor's leading t_
  // columns, CSC, rows < t_ (appended in row order, so ascending).
  std::vector<std::size_t> l_colp_;
  std::vector<std::size_t> l_rows_;
  std::vector<double> l_vals_;
  // Supernode column starts over [0, t_]; size supernode_count() + 1.
  // Within panel [j0, j1), column j's pattern is exactly the remaining
  // panel columns {j+1, .., j1-1} followed by a below-panel row set
  // shared by the whole panel — the solves and the Schur subtraction
  // exploit this layout.
  std::vector<std::size_t> sn_ptr_;
  SparseFactorPhases phases_;
  Vec d_;  // t_ sparse-phase pivots
  // L21: rows t_..n-1 of the factor restricted to columns < t_, CSR.
  std::vector<std::size_t> l21_rowp_;
  std::vector<std::size_t> l21_cols_;
  std::vector<double> l21_vals_;
  // Dense LDL^T of the Schur complement; engaged iff t_ < n_.
  std::optional<LdltFactor> tail_;

  // The halves of a solve around the dense tail, in permuted coordinates:
  // head_forward runs the sparse forward sweep, the L21 coupling and the
  // head pivots; the tail then solves y[t_, n_); head_backward runs the
  // L21^T feedback and the sparse backward sweep.
  void head_forward(Vec& y) const;
  void head_backward(Vec& y) const;

  SparseLdltFactor() = default;
};

}  // namespace bcclap::linalg
