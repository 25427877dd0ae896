// Laplacian factorization front ends over the dense and sparse LDL^T
// kernels (linalg/ldlt.h, linalg/sparse_ldlt.h).
//
// The reproduction uses these in two places:
//  - exact reference solves in tests and verification, and
//  - the "internal computation" each BCC node performs on the globally-known
//    sparsifier H (Section 3.3): once H is known to every node, solving
//    L_H y = r costs zero rounds, so a local factorization is the honest
//    model of that step.
//
// Laplacians are rank-deficient (kernel = span{1} for connected graphs), so
// `LaplacianFactor` grounds the last vertex and solves on the quotient;
// `ComponentLaplacianFactor` does the same per connected component.
//
// Backend dispatch: `factor` grounds the matrix and then picks the dense
// blocked kernel or the sparse CSC path via `sparse_path_selected`
// (sparse_ldlt.h) — large, sparse inputs (sparsified Laplacians at bench
// scale) take the sparse factorization, everything else stays on the
// dense kernel, and callers never see the difference except in `path()` /
// the RunStats counters. Both backends keep the byte-identical-at-any-
// thread-count determinism contract, and every factor exposes a multi-RHS
// `solve_many` panel path byte-identical to sequential per-column solves.
//
// Shareability contract (load-bearing for the factorization cache,
// core/factor_cache.h): a factored value is immutable — every solve is
// const and takes its execution context per call — so one factor may be
// applied concurrently from any number of Runtimes without
// synchronization, and the applying pool/thread-count never changes the
// solution bytes.
#pragma once

#include <optional>
#include <variant>

#include "common/context.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "linalg/ldlt.h"
#include "linalg/sparse_ldlt.h"
#include "linalg/vector_ops.h"

namespace bcclap::linalg {

// Solver for L x = b where L is the Laplacian of a *connected* graph and
// b has zero sum. Grounds the last coordinate, factors the reduced matrix,
// and returns the mean-zero representative of the solution. A 1-vertex
// graph (L = 0) is a valid edge case: the factor holds nothing and solves
// to the zero vector, matching ComponentLaplacianFactor's singleton
// handling.
class LaplacianFactor {
 public:
  // Both factor() overloads throw std::invalid_argument on a non-square
  // laplacian.
  static std::optional<LaplacianFactor> factor(const common::Context& ctx,
                                               const CsrMatrix& laplacian);

  // Same, with an explicit backend mode instead of the process-wide
  // factor_mode() — the engine registry's per-request "exact-dense" /
  // "exact-sparse" keys pin their backend through here.
  static std::optional<LaplacianFactor> factor(const common::Context& ctx,
                                               const CsrMatrix& laplacian,
                                               FactorMode mode);

  // Requires sum(b) ~ 0 (the solver projects b to be safe). Returns x with
  // mean zero satisfying L x = b. Throws std::invalid_argument on a
  // wrong-sized b (public solve surface; see ldlt.h).
  Vec solve(const Vec& b) const;

  // Panel solve: the projected panel goes through the backend's
  // solve_many in one call; per-column byte-identical to solve() (see
  // LdltFactor::solve_many).
  DenseMatrix solve_many(const common::Context& ctx,
                         const DenseMatrix& b) const;

  std::size_t dim() const { return n_; }

  // Which backend factor() selected for the grounded matrix (kNone for
  // the 1-vertex case, where there is nothing to factor).
  FactorKind path() const;

  // Resident payload of the grounded factor, for the factorization
  // cache's byte-budget accounting.
  std::size_t resident_bytes() const {
    if (const auto* d = std::get_if<LdltFactor>(&reduced_))
      return d->resident_bytes();
    if (const auto* s = std::get_if<SparseLdltFactor>(&reduced_))
      return s->resident_bytes();
    return 0;
  }

  // Phase breakdown of the factorization (sparse_ldlt.h); all-zero when
  // the grounded factor ran on the dense kernel or there was nothing to
  // factor.
  SparseFactorPhases factor_phases() const {
    if (const auto* s = std::get_if<SparseLdltFactor>(&reduced_))
      return s->phases();
    return {};
  }

 private:
  using Reduced = std::variant<std::monostate, LdltFactor, SparseLdltFactor>;

  std::size_t n_ = 0;
  Reduced reduced_;

  // 1-vertex factor: reduced_ default-constructs to monostate.
  explicit LaplacianFactor(std::size_t n) : n_(n) {}
  LaplacianFactor(std::size_t n, Reduced reduced)
      : n_(n), reduced_(std::move(reduced)) {}
};

// Generalized Laplacian solver for possibly *disconnected* graphs: solves
// on range(L) by grounding one vertex per connected component and
// projecting the right-hand side per component. Needed by the Gremban
// reduction, whose virtual graph is legitimately disconnected when the SDD
// matrix has zero off-diagonals between some vertex groups.
class ComponentLaplacianFactor {
 public:
  // Both factor() overloads throw std::invalid_argument on a non-square
  // laplacian.
  static std::optional<ComponentLaplacianFactor> factor(
      const common::Context& ctx, const CsrMatrix& laplacian);

  // Explicit-backend variant; see LaplacianFactor::factor(ctx, l, mode).
  static std::optional<ComponentLaplacianFactor> factor(
      const common::Context& ctx, const CsrMatrix& laplacian, FactorMode mode);

  // Returns the minimum-norm-style representative: per component, the
  // solution with zero component mean for the component-projected rhs.
  // Per-component solves fan out over ctx's pool — the context is a
  // per-call argument (not captured at factor time), so the factor stays
  // valid after the Runtime it was factored on is gone.
  Vec solve(const common::Context& ctx, const Vec& b) const;

  // Panel solve: each component's projected panel goes through its
  // factor's solve_many (which fans out over ctx's pool), components in
  // order; per-column byte-identical to solve().
  DenseMatrix solve_many(const common::Context& ctx,
                         const DenseMatrix& b) const;

  std::size_t dim() const { return n_; }
  std::size_t num_components() const { return component_vertices_.size(); }

  // Backend selection tallies across components (singletons factor
  // nothing and count for neither) — the source of the RunStats
  // dense_factors / sparse_factors counters.
  std::size_t dense_factor_count() const;
  std::size_t sparse_factor_count() const;

  // Phase breakdown summed over the components that factored sparsely
  // (all-zero when every component ran dense).
  SparseFactorPhases factor_phases() const {
    SparseFactorPhases sum;
    for (const auto& f : factors_) {
      if (!f) continue;
      if (const auto* s = std::get_if<SparseLdltFactor>(&*f))
        sum += s->phases();
    }
    return sum;
  }

  // Resident payload summed over the per-component factors plus the
  // component index maps, for the factorization cache's byte accounting.
  std::size_t resident_bytes() const {
    std::size_t bytes = component_of_.size() * sizeof(std::size_t);
    for (const auto& vs : component_vertices_)
      bytes += vs.size() * sizeof(std::size_t);
    for (const auto& f : factors_) {
      if (!f) continue;
      if (const auto* d = std::get_if<LdltFactor>(&*f))
        bytes += d->resident_bytes();
      else if (const auto* s = std::get_if<SparseLdltFactor>(&*f))
        bytes += s->resident_bytes();
    }
    return bytes;
  }

 private:
  using Grounded = std::variant<LdltFactor, SparseLdltFactor>;

  std::size_t n_ = 0;
  std::vector<std::size_t> component_of_;
  std::vector<std::vector<std::size_t>> component_vertices_;
  // One grounded factor per component of size >= 2 (grounded on its last
  // vertex); index aligned with component_vertices_, nullopt for
  // singletons.
  std::vector<std::optional<Grounded>> factors_;

  ComponentLaplacianFactor() = default;
};

}  // namespace bcclap::linalg
