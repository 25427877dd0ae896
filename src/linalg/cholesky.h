// The grounded-Laplacian factor over the dense and sparse LDL^T kernels
// (linalg/ldlt.h, linalg/sparse_ldlt.h).
//
// The reproduction uses it in two places:
//  - exact reference solves in tests and verification
//    (laplacian/solver.h), and
//  - the "internal computation" each BCC node performs on the globally-known
//    sparsifier H (Section 3.3): once H is known to every node, solving
//    L_H y = r costs zero rounds, so a local factorization is the honest
//    model of that step.
//
// Laplacians are rank-deficient (kernel = one indicator vector per
// connected component), so `ComponentLaplacianFactor` grounds one vertex
// per component and solves on the quotient. A connected graph is simply
// the one-component case.
//
// Backend dispatch: `factor` grounds each component and then picks the
// dense blocked kernel or the sparse CSC path via `sparse_path_selected`
// (sparse_ldlt.h) under the caller's FactorMode — decided once per
// component, here. Under kAuto, large, sparse inputs (sparsified
// Laplacians at bench scale) take the sparse factorization, everything
// else stays on the dense kernel, and callers never see the difference
// except in `dense_factor_count()` / `sparse_factor_count()` and the
// RunStats counters fed by them. Both backends keep the
// byte-identical-at-any-thread-count determinism contract.
//
// There is one solve body, `solve_many`: a single right-hand side is an
// n x 1 panel, and the kernels' one-column panel runs exactly their
// single-vector arithmetic.
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

// Laplacian solver for possibly *disconnected* graphs: solves on range(L)
// by grounding one vertex per connected component and projecting the
// right-hand side per component. Disconnected inputs are legitimate: the
// Gremban reduction's virtual graph splits when the SDD matrix has zero
// off-diagonals between some vertex groups.
class ComponentLaplacianFactor {
 public:
  // Factors every component of size >= 2 (grounded on its last vertex in
  // DFS discovery order) on the backend `mode` selects for it: kAuto
  // applies the size/density rule, the force modes pin one — the engine
  // registry's "exact-dense" / "exact-sparse" keys pin theirs through
  // here. Returns nullopt when some component's grounded matrix does not
  // factor. Throws std::invalid_argument on a non-square laplacian.
  static std::optional<ComponentLaplacianFactor> factor(
      const common::Context& ctx, const CsrMatrix& laplacian,
      FactorMode mode = FactorMode::kAuto);

  // The one solve: column j of the result is the minimum-norm-style
  // representative for column j of b — per component, the solution with
  // zero component mean for the component-projected rhs, and zero on
  // singletons. Each component's projected panel goes through its
  // factor's solve_many (which fans out over ctx's pool), components in
  // order; columns never mix, so a k-column panel equals k one-column
  // panels byte for byte. The context is a per-call argument (not
  // captured at factor time), so the factor stays valid after the
  // Runtime it was factored on is gone. Throws std::invalid_argument
  // when b does not have dim() rows.
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
