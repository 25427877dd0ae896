// Sparsifier-preconditioned Laplacian solver (Corollary 2.4 / Theorem 1.3).
//
// Preprocessing: compute a (1 +- 1/2) spectral sparsifier H of G (known to
// every BCC node after the sparsification broadcasts). Per instance (b,
// eps): preconditioned Chebyshev with A = L_G, B = (3/2) L_H, kappa = 3 —
// O(log 1/eps) iterations, each one distributed L_G matvec plus a free
// local solve in L_H.
//
// Since the prepare/apply split, this class is a thin stateful wrapper
// over the immutable prepared artifact (laplacian/prepared.h): the
// constructor runs the prepare phase (prepare_sparsified_chebyshev) and
// every solve is an apply against it, plus round-accountant charges. The
// artifact itself is what the facade, the solver service and the
// factorization cache share.
#pragma once

#include <cstdint>
#include <memory>

#include "bcc/round_accountant.h"
#include "common/context.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "laplacian/prepared.h"
#include "linalg/cholesky.h"
#include "linalg/vector_ops.h"
#include "sparsify/spectral_sparsify.h"

namespace bcclap::laplacian {

// Unified stats shape (core/stats.h): iterations = Chebyshev iterations,
// rounds = BCC rounds of the solve. The old {iterations, rounds} struct
// had exactly these fields, so existing callers compile unchanged.
using SolveStats = core::RunStats;

class SparsifiedLaplacianSolver {
 public:
  // Builds the preconditioner by spectral sparsification over a Broadcast
  // CONGEST network on g's topology, executing on ctx's pool and drawing
  // all randomness from ctx.seed(). If the sparsifier has more connected
  // components than G (possible with aggressively small bundle constants),
  // a spanning forest of G is unioned in; `tree_patched()` reports this.
  // Disconnected inputs are handled per component. The solver keeps the
  // context: the Runtime behind it must outlive the solver. (The prepared
  // artifact it wraps does NOT keep the context — see prepared.h.)
  SparsifiedLaplacianSolver(const common::Context& ctx, const graph::Graph& g,
                            const sparsify::SparsifyOptions& opt);

  // Solves L_G x = b to ||x - y||_{L_G} <= eps ||x||_{L_G}. b is projected
  // onto range(L_G) (mean removed). Rounds are charged per Theorem 1.3:
  // O(log(1/eps)) iterations x O(log(n U / eps)) bits per matvec broadcast.
  // stats additionally reports which factorization backend the
  // preconditioner runs on (dense_factors / sparse_factors). Throws
  // std::invalid_argument on a wrong-sized b.
  linalg::Vec solve(const linalg::Vec& b, double eps,
                    SolveStats* stats = nullptr);

  // Batched multi-RHS solve: b is n x k, one right-hand side per column.
  // The sparsifier and its factorization were built once at construction;
  // every column rides one shared Chebyshev panel loop (one L_G panel
  // apply + one L_H panel solve per iteration), byte-identical per column
  // to solve(column, eps) at any thread count. Rounds are charged k x the
  // per-column solve cost (broadcasting k vectors costs k x the bits; the
  // panel amortizes wall time, not communication). stats: iterations =
  // per-column Chebyshev iterations, rounds = the panel's total, panels
  // = 1.
  linalg::DenseMatrix solve_many(const linalg::DenseMatrix& b, double eps,
                                 SolveStats* stats = nullptr);

  // False when even the fallback factorization failed (numerically
  // degenerate input); solve() must not be called in that case.
  bool usable() const { return core_->usable(); }

  std::int64_t preprocessing_rounds() const {
    return core_->preprocessing_rounds();
  }
  const graph::Graph& sparsifier() const { return *core_->sparsifier(); }
  bool tree_patched() const { return core_->tree_patched(); }
  bcc::RoundAccountant& accountant() { return accountant_; }

  // Backend tallies of the preconditioner factorization (one entry per
  // grounded component of H); 0 / 0 while !usable().
  std::size_t dense_factors() const { return core_->dense_factors(); }
  std::size_t sparse_factors() const { return core_->sparse_factors(); }

  // The immutable prepare-phase artifact this solver wraps (never null).
  std::shared_ptr<const PreparedLaplacian> prepared() const { return core_; }

 private:
  common::Context ctx_;
  std::shared_ptr<const PreparedLaplacian> core_;
  bcc::RoundAccountant accountant_;
};

// Factor-once exact Laplacian solver (dense LDL^T on grounded L_G): test
// oracles, benches and the exact engines solve many right-hand sides
// against one graph without re-paying the O(n^3) factorization per call.
// Requires a connected graph (same contract as exact_laplacian_solve).
class ExactLaplacianSolver {
 public:
  ExactLaplacianSolver(const common::Context& ctx, const graph::Graph& g);

  bool usable() const { return factor_.has_value(); }
  linalg::Vec solve(const linalg::Vec& b) const;
  // Panel solve; columns fan out on the construction context's pool,
  // per-column byte-identical to solve().
  linalg::DenseMatrix solve_many(const linalg::DenseMatrix& b) const;

  // Backend the grounded factorization ran on (kNone while !usable() or
  // for a 1-vertex graph).
  linalg::FactorKind factor_path() const {
    return factor_ ? factor_->path() : linalg::FactorKind::kNone;
  }

 private:
  common::Context ctx_;
  std::optional<linalg::LaplacianFactor> factor_;
};

// Exact reference solve (dense LDL^T on grounded L_G); one-shot test
// oracle. Re-factors per call — callers with several right-hand sides on
// one graph use ExactLaplacianSolver instead.
linalg::Vec exact_laplacian_solve(const common::Context& ctx,
                                  const graph::Graph& g,
                                  const linalg::Vec& b);

// Energy norm ||x||_{L_G} = sqrt(x' L_G x).
double laplacian_norm(const common::Context& ctx, const graph::Graph& g,
                      const linalg::Vec& x);

}  // namespace bcclap::laplacian
