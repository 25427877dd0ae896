// Preconditioned Chebyshev iteration (Theorem 2.3).
//
// Given symmetric PSD A, B with A <= B <= kappa*A (Loewner order), solves
// A x = b to relative A-norm error eps in O(sqrt(kappa) * log(1/eps))
// iterations, each consisting of one multiply by A, one solve with B, and
// O(1) vector operations — exactly the primitive the BCC Laplacian solver
// is built on (Corollary 2.4 instantiates B = (1 + 1/2) L_H, kappa = 3).
//
// The driver runs on panels: b is n x k, one right-hand side per column,
// and a single right-hand side is a k = 1 panel. The operators are
// column-wise PanelOperators (dense_matrix.h), so column j of the result
// depends only on column j of b: a k-column panel is byte-identical to k
// one-column panels.
#pragma once

#include <cstddef>

#include "linalg/dense_matrix.h"

namespace bcclap::linalg {

struct ChebyshevPanelResult {
  DenseMatrix x;  // n x k, one solution per column
  std::size_t iterations = 0;
  // Panel applications (each covers every column at once; one of each per
  // iteration, kept separate so round accounting can charge them
  // differently).
  std::size_t a_multiplies = 0;
  std::size_t b_solves = 0;
};

// apply_a : X -> A X. solve_b : R -> B^{-1} R (to working precision).
// kappa   : bound with A <= B <= kappa A.
// The iteration count is ceil(sqrt(kappa) * log(2/eps)) + 1, the explicit
// form of Theorem 2.3's O(sqrt(kappa) log(1/eps)). The scalar schedule
// (alpha, beta) depends only on kappa, never on the data, so every column
// takes the same iteration count. A k = 0 panel returns immediately.
ChebyshevPanelResult preconditioned_chebyshev_many(
    const PanelOperator& apply_a, const PanelOperator& solve_b,
    const DenseMatrix& b, double kappa, double eps);

// Same primitive with an explicit iteration count (used by benches that
// sweep the iteration budget).
ChebyshevPanelResult preconditioned_chebyshev_many_fixed(
    const PanelOperator& apply_a, const PanelOperator& solve_b,
    const DenseMatrix& b, double kappa, std::size_t iterations);

}  // namespace bcclap::linalg
