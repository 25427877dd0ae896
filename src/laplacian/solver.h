// Exact reference Laplacian solves: the test and bench oracle the
// sparsifier-preconditioned pipeline is measured against. The pipeline
// itself (Corollary 2.4 / Theorem 1.3) is the prepared
// sparsified-chebyshev artifact (laplacian/prepared.h), reached through
// the engine registry or the Runtime facade. The oracle is a function
// over linalg::ComponentLaplacianFactor, the one grounded-Laplacian
// factor; callers with many right-hand sides on one graph factor once
// and pass a panel to its solve_many, or prepare an exact artifact.
#pragma once

#include "common/context.h"
#include "graph/graph.h"
#include "linalg/vector_ops.h"

namespace bcclap::laplacian {

// Exact reference solve of L_G x = b: factors L_G with
// ComponentLaplacianFactor (kAuto backend) and solves b as a k = 1
// panel. Returns the per-component mean-zero x with L_G x equal to the
// per-component projection of b (zero on isolated vertices), so
// disconnected graphs solve per component. Throws std::runtime_error when
// L_G does not factor (e.g. a negative edge weight makes it indefinite)
// and std::invalid_argument when b has the wrong size.
linalg::Vec exact_laplacian_solve(const common::Context& ctx,
                                  const graph::Graph& g,
                                  const linalg::Vec& b);

// Energy norm ||x||_{L_G} = sqrt(x' L_G x).
double laplacian_norm(const common::Context& ctx, const graph::Graph& g,
                      const linalg::Vec& x);

}  // namespace bcclap::laplacian
