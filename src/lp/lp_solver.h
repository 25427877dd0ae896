// Interior-point LP solver in the Broadcast Congested Clique
// (Section 4.2, Theorem 1.4; Lee-Sidford weighted path finding).
//
// Solves   min c^T x  s.t.  A^T x = b,  l <= x <= u   (A is m x n, m >= n)
// by weighted path following: x_t = argmin_{A^T x = b} t c^T x + sum_i
// g_i(x) phi_i(x_i). Each step is a projected Newton step whose linear
// system is A^T D A for positive diagonal D — the primitive the BCC
// Laplacian solver provides for flow-structured A (Lemma 5.1).
//
// Weight modes:
//  - kVanilla: g == 1 (classical log-barrier path following, O(sqrt(m))
//    iterations) — the baseline the paper improves on.
//  - kLewis: g = regularized ell_p Lewis weights (Definition 4.3),
//    recomputed each step via Algorithm 7 with warm start and moved through
//    the mixed-norm-ball projection (Algorithm 11) — O(sqrt(n) polylog)
//    iterations.
//
// Step modes:
//  - kShortStep: fixed multiplicative t-step alpha = alpha_constant /
//    (sqrt(scale) * log m), scale = n (Lewis) or m (vanilla): the paper's
//    schedule shape with a bench-tunable constant.
//  - kAdaptive: doubling/halving t-steps gated on centering success; used
//    when the goal is the answer, not the iteration-count experiment.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bcc/round_accountant.h"
#include "common/context.h"
#include "core/stats.h"
#include "laplacian/bcc_solver.h"
#include "linalg/csr_matrix.h"
#include "linalg/vector_ops.h"
#include "lp/barrier.h"
#include "lp/lewis_weights.h"

namespace bcclap::lp {

struct LpProblem {
  linalg::CsrMatrix a;  // m x n, full column rank
  linalg::Vec b;        // n
  linalg::Vec c;        // m
  linalg::Vec lower;    // m (may contain -inf)
  linalg::Vec upper;    // m (may contain +inf)
};

enum class WeightMode { kVanilla, kLewis };
enum class StepMode { kShortStep, kAdaptive };

// Hook for callers that need full control over the (A^T D A)-system
// solver (custom contexts, instrumented engines); lp_solve calls it once
// per Gram system (one per Newton step plus the final feasibility
// restoration). When empty, engines are built by LpOptions::engine
// through the registry (laplacian/engine.h).
using GramSolverFactory =
    std::function<std::unique_ptr<laplacian::SddEngine>(
        const linalg::DenseMatrix& gram)>;

struct LpOptions {
  WeightMode weights = WeightMode::kVanilla;
  StepMode steps = StepMode::kAdaptive;
  double epsilon = 1e-6;         // additive objective error target
  double alpha_constant = 0.5;   // short-step scale (paper: R/1600)
  double centering_tol = 0.25;   // Newton decrement target
  std::size_t max_center_steps = 60;
  std::size_t max_path_steps = 100000;
  double t_start_scale = 1e-4;   // t1 = t_start_scale / (m^{3/2} U^2)
  bool use_mixed_ball_update = true;
  LewisOptions lewis;
  GramSolverFactory gram_factory;  // empty = registry engine (below)
  // Engine registry key for the Gram systems when gram_factory is empty:
  // "auto" is resolved once per lp_solve, on the
  // first Gram system, from (n, density, eps_hint = 1e-12) — inputs no
  // later system of the solve can change; small dense grams resolve to
  // "exact-dense", reproducing the historical exact engine — and a
  // concrete key pins the backend for every Newton step. Ignored when
  // gram_factory is set.
  std::string engine = "auto";
  std::uint64_t seed = 7;
};

struct LpResult {
  linalg::Vec x;
  double objective = 0.0;
  bool converged = false;
  // Unified shape (core/stats.h): iterations = path steps (t-updates
  // across both phases), steps = Newton centering steps, rounds =
  // accounted BCC rounds, engine = the registry key of the Gram systems.
  core::RunStats stats;
};

// LPSolve (Algorithm 9): phase 1 re-centers x0, phase 2 follows the real
// cost to t2 ~ m/epsilon. x0 must satisfy A^T x0 = b strictly inside the
// box. Linear-algebra kernels run on ctx's pool; the default Gram engine
// is built with ctx (a custom opt.gram_factory captures its own context).
LpResult lp_solve(const common::Context& ctx, const LpProblem& prob,
                  const linalg::Vec& x0, const LpOptions& opt);

// Assembles A^T D A (n x n dense) for diagonal D given as a vector.
linalg::DenseMatrix assemble_gram(const linalg::CsrMatrix& a,
                                  const linalg::Vec& d);

}  // namespace bcclap::lp
