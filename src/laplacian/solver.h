// Exact reference Laplacian solves: the test and bench oracle the
// sparsifier-preconditioned pipeline is measured against. The pipeline
// itself (Corollary 2.4 / Theorem 1.3) is the prepared
// sparsified-chebyshev artifact (laplacian/prepared.h), reached through
// the engine registry or the Runtime facade.
#pragma once

#include <optional>

#include "common/context.h"
#include "graph/graph.h"
#include "linalg/cholesky.h"
#include "linalg/vector_ops.h"

namespace bcclap::laplacian {

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
