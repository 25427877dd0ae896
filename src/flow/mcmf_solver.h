// Theorem 1.1 pipeline: exact min-cost max-flow via the LP solver.
//
// The solver runs two numerically benign LPs instead of the paper's single
// combined LP (whose worst-case penalty constants overflow doubles; see
// DESIGN.md section 2):
//   Stage A (max flow): min 2*(1'y + 1'z) - F  over the Section 5 polytope
//     — the optimum is -F* with zero slack, and F* is integral, so a 0.2-
//     approximate solve rounds to the exact max-flow value.
//   Stage B (min cost): min q~'x + lambda*(1'y + 1'z) with F fixed to F*,
//     q~ carrying the Daitch-Spielman perturbation; solved to additive
//     1/(3D) so the unique perturbed optimum rounds to the exact integral
//     min-cost flow.
// Rounded candidates are feasibility-checked; on failure the perturbation
// is redrawn (the paper's footnote-7 boosting).
#pragma once

#include <cstdint>

#include "common/context.h"
#include "core/stats.h"
#include "graph/digraph.h"
#include "lp/lp_solver.h"

namespace bcclap::flow {

struct McmfOptions {
  lp::LpOptions lp;            // IPM configuration for both stages
  std::size_t max_retries = 4; // perturbation redraws (boosting)
  std::uint64_t seed = 42;
};

struct McmfIpmResult {
  graph::FlowResult flow;
  bool exact = false;          // rounded flow is feasible with value F*
  std::size_t retries = 0;
  std::size_t path_steps = 0;  // IPM path steps across stages and retries
  std::size_t newton_steps = 0;
  std::int64_t rounds = 0;     // accounted BCC rounds
  std::int64_t max_flow_value = 0;
  // Unified shape (core/stats.h): every stage LP's RunStats folded in
  // with +=, so iterations = path_steps, steps = newton_steps, rounds as
  // above, panels = the Gram panels of all stages and engine = their
  // registry key. path_steps, newton_steps and rounds
  // duplicate stats because the benchmark harness
  // (perfbench/flow_exact.cpp) reads them; they go when it reads stats.
  core::RunStats stats;
};

// Runs both LP stages on ctx's pool. The Daitch-Spielman perturbation
// stream stays seeded by opt.seed (so reruns with a fixed McmfOptions are
// reproducible across Runtimes); ctx.seed() governs any sparsified Gram
// engines a caller-supplied opt.lp.gram_factory builds from its context.
McmfIpmResult min_cost_max_flow_ipm(const common::Context& ctx,
                                    const graph::Digraph& g, std::size_t s,
                                    std::size_t t, const McmfOptions& opt);

}  // namespace bcclap::flow
