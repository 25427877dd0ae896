#include "laplacian/solver.h"

#include <cassert>
#include <cmath>

#include "graph/laplacian.h"

namespace bcclap::laplacian {

ExactLaplacianSolver::ExactLaplacianSolver(const common::Context& ctx,
                                           const graph::Graph& g)
    : ctx_(ctx),
      factor_(linalg::LaplacianFactor::factor(ctx, graph::laplacian(g))) {}

linalg::Vec ExactLaplacianSolver::solve(const linalg::Vec& b) const {
  assert(factor_ && "graph must be connected");
  return factor_->solve(b);
}

linalg::DenseMatrix ExactLaplacianSolver::solve_many(
    const linalg::DenseMatrix& b) const {
  assert(factor_ && "graph must be connected");
  return factor_->solve_many(ctx_, b);
}

linalg::Vec exact_laplacian_solve(const common::Context& ctx,
                                  const graph::Graph& g,
                                  const linalg::Vec& b) {
  return ExactLaplacianSolver(ctx, g).solve(b);
}

double laplacian_norm(const common::Context& ctx, const graph::Graph& g,
                      const linalg::Vec& x) {
  return std::sqrt(
      std::max(0.0, linalg::dot(x, graph::apply_laplacian(ctx, g, x))));
}

}  // namespace bcclap::laplacian
