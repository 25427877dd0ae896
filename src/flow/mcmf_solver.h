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
// Stage A's rounding of F* can be off by one, so each Stage B attempt
// probes the targets in this order:
//   1. F*. If it rounds to a feasible flow of value F*, a BFS over that
//      flow's residual graph (graph::has_augmenting_path) certifies it:
//      when t is unreachable the flow is maximum (max-flow/min-cut), no
//      flow of value F*+1 exists, and the attempt keeps it without an
//      F*+1 LP. When t is reachable, F*+1 is probed and kept if it
//      rounds, else the F* flow is kept.
//   2. When F* does not round: F*+1, then F*-1.
// Each attempt picks the same candidate as probing F*+1, F*, F*-1 in
// that order would; the certificate only skips LPs that cannot round.
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
  std::int64_t rounds = 0;     // accounted BCC rounds (see stats)
  std::int64_t max_flow_value = 0;
  // Unified shape (core/stats.h): every stage LP's RunStats folded in
  // with +=, so iterations = path_steps, steps = newton_steps, panels =
  // the Gram panels of all stages and engine = their registry key.
  // rounds = the stage LPs' rounds plus one round per layer of every
  // certificate BFS (each layer's newly reached vertices broadcast their
  // ids). path_steps, newton_steps and rounds duplicate stats because the
  // benchmark harness (perfbench/flow_exact.cpp) reads them; they go when
  // it reads stats.
  core::RunStats stats;
};

// Runs both LP stages on ctx's pool. Throws std::invalid_argument when
// s or t is not a vertex of g, or s == t. The Daitch-Spielman
// perturbation stream stays seeded by opt.seed (so reruns with a fixed
// McmfOptions are reproducible across Runtimes); ctx.seed() governs any
// sparsified Gram engines a caller-supplied opt.lp.gram_factory builds
// from its context.
McmfIpmResult min_cost_max_flow_ipm(const common::Context& ctx,
                                    const graph::Digraph& g, std::size_t s,
                                    std::size_t t, const McmfOptions& opt);

}  // namespace bcclap::flow
