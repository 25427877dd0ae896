// Conjugate gradient solver (optionally preconditioned) against an abstract
// panel operator. Baseline for the ablation A2 and the "cg" engines.
//
// The driver runs on panels: b is n x k, one right-hand side per column,
// and a single right-hand side is a k = 1 panel.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.h"

namespace bcclap::linalg {

struct CgPanelResult {
  DenseMatrix x;  // n x k, one solution per column
  std::vector<std::size_t> iterations;  // per column
  std::vector<double> residual_norm;    // per column
  std::vector<bool> converged;          // per column
  // Panel A-applications (each covers every still-active column).
  std::size_t a_multiplies = 0;
};

// Solves A X = B for symmetric PSD `apply_a`, stopping column j when
// ||A x_j - b_j||_2 <= tol * ||b_j||_2 or after max_iter iterations.
// `precond` (if given) must apply an SPD approximation of A^{-1}.
//
// The panel's columns run in lockstep sharing one A-application and one
// preconditioner application per iteration; CG's scalars (alpha, beta,
// residuals) are tracked per column, and a column that converges (or
// loses positive-definiteness) is frozen — its state stops updating at
// exactly the iteration its one-column run would have stopped. With
// column-wise operators (dense_matrix.h) column j of a k-column panel is
// byte-identical to the one-column panel of b's column j.
CgPanelResult conjugate_gradient_many(const PanelOperator& apply_a,
                                      const DenseMatrix& b, double tol,
                                      std::size_t max_iter,
                                      const PanelOperator* precond = nullptr);

}  // namespace bcclap::linalg
