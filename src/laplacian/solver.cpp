#include "laplacian/solver.h"

#include <cmath>
#include <stdexcept>

#include "graph/laplacian.h"
#include "linalg/cholesky.h"

namespace bcclap::laplacian {

linalg::Vec exact_laplacian_solve(const common::Context& ctx,
                                  const graph::Graph& g,
                                  const linalg::Vec& b) {
  const auto factor =
      linalg::ComponentLaplacianFactor::factor(ctx, graph::laplacian(g));
  if (!factor) {
    throw std::runtime_error(
        "exact_laplacian_solve: graph Laplacian does not factor");
  }
  return factor->solve_many(ctx, linalg::DenseMatrix::from_columns({b}))
      .column(0);
}

double laplacian_norm(const common::Context& ctx, const graph::Graph& g,
                      const linalg::Vec& x) {
  return std::sqrt(
      std::max(0.0, linalg::dot(x, graph::apply_laplacian(ctx, g, x))));
}

}  // namespace bcclap::laplacian
