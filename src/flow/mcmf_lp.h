// The Section 5 LP formulation of min-cost max-flow.
//
// Variables (x, y, z, F) in R^{|E| + 2(|V|-1) + 1}:
//   minimize  q~^T x + lambda (1^T y + 1^T z) - flow_bonus * F
//   s.t.      B x + y - z = F e_t          (B: incidence without s's row)
//             0 <= x <= c, 0 <= y,z <= y_cap, 0 <= F <= F_cap
// plus the Daitch-Spielman random cost perturbation q~ that makes the
// optimal flow unique with probability >= 1/2, so the approximate LP
// solution rounds to the exact integral optimum.
//
// The paper's penalty constants (lambda = 440|E|^4 M~^2 M^3 with
// M~ = 8|E|^2 M^3) exceed double range on any nontrivial instance; we use
// the minimal dominance-preserving versions (flow_bonus > max path cost,
// lambda > flow_bonus), which enforce the same lexicographic priorities —
// see DESIGN.md section 2. Exactness is verified (and on failure the
// perturbation is redrawn, the paper's footnote-7 boosting).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "graph/digraph.h"
#include "lp/lp_solver.h"

namespace bcclap::flow {

struct McmfLp {
  lp::LpProblem problem;
  linalg::Vec interior_point;     // the Section 5 explicit interior point
  std::vector<std::int64_t> perturbed_cost;  // q~ (scaled to integers)
  std::int64_t cost_scale = 1;    // q~ = cost_scale * q + noise
  double flow_bonus = 0.0;        // objective coefficient of F
  double lambda = 0.0;            // slack penalty
  std::size_t num_arcs = 0;
  std::size_t num_vertices = 0;
  std::size_t s = 0;
  std::size_t t = 0;
};

// Builds the LP for (g, s, t). `stream` drives the cost perturbation.
// Throws std::invalid_argument when s or t is not a vertex of g, or
// s == t.
McmfLp build_mcmf_lp(const graph::Digraph& g, std::size_t s, std::size_t t,
                     rng::Stream& stream);

// Extracts the arc-flow part of an LP iterate and rounds it to integers
// (Section 5's (1 - eps) scaling + rounding).
std::vector<std::int64_t> round_flow(const McmfLp& lp, const linalg::Vec& x);

}  // namespace bcclap::flow
