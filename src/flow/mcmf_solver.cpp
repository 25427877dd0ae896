#include "flow/mcmf_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"
#include "flow/mcmf_lp.h"

namespace bcclap::flow {

namespace {

struct StageLp {
  lp::LpProblem problem;
  linalg::Vec x0;
  bool has_f = false;
  std::size_t m = 0;
  std::size_t nv1 = 0;
};

// Shared polytope: rows [x | y | z | (F)], columns = vertices minus s.
StageLp build_stage(const graph::Digraph& g, std::size_t s, std::size_t t,
                    bool with_f, double f_target,
                    const linalg::Vec& arc_cost, double slack_penalty,
                    double f_cost) {
  const std::size_t m = g.num_arcs();
  const std::size_t nv = g.num_vertices();
  const std::size_t nv1 = nv - 1;
  const std::int64_t max_cap = std::max<std::int64_t>(g.max_capacity(), 1);
  auto col = [&](std::size_t v) { return v < s ? v : v - 1; };

  StageLp out;
  out.has_f = with_f;
  out.m = m;
  out.nv1 = nv1;
  const std::size_t total = m + 2 * nv1 + (with_f ? 1 : 0);

  std::vector<linalg::Triplet> trips;
  for (std::size_t a = 0; a < m; ++a) {
    const auto& arc = g.arc(a);
    if (arc.head != s) trips.push_back({a, col(arc.head), 1.0});
    if (arc.tail != s) trips.push_back({a, col(arc.tail), -1.0});
  }
  for (std::size_t v = 0; v < nv; ++v) {
    if (v == s) continue;
    trips.push_back({m + col(v), col(v), 1.0});
    trips.push_back({m + nv1 + col(v), col(v), -1.0});
  }
  if (with_f) trips.push_back({m + 2 * nv1, col(t), -1.0});

  const double y_cap =
      4.0 * static_cast<double>(nv + m) * static_cast<double>(max_cap);
  const double f_cap =
      2.0 * static_cast<double>(nv) * static_cast<double>(max_cap);

  auto& prob = out.problem;
  prob.a = linalg::CsrMatrix(total, nv1, std::move(trips));
  prob.b.assign(nv1, 0.0);
  if (!with_f) prob.b[col(t)] = f_target;  // B x + y - z = F* e_t
  prob.c.assign(total, 0.0);
  prob.lower.assign(total, 0.0);
  prob.upper.assign(total, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    prob.c[a] = arc_cost.empty() ? 0.0 : arc_cost[a];
    prob.upper[a] = static_cast<double>(g.arc(a).capacity);
  }
  for (std::size_t i = 0; i < 2 * nv1; ++i) {
    prob.c[m + i] = slack_penalty;
    prob.upper[m + i] = y_cap;
  }
  if (with_f) {
    prob.c[m + 2 * nv1] = f_cost;
    prob.upper[m + 2 * nv1] = f_cap;
  }

  // Interior point: mid-capacity flow, slacks absorbing the residual.
  linalg::Vec x0(total, 0.0);
  for (std::size_t a = 0; a < m; ++a)
    x0[a] = 0.5 * static_cast<double>(g.arc(a).capacity);
  if (with_f) x0[m + 2 * nv1] = 0.5 * f_cap;
  const auto partial = prob.a.multiply_transpose(x0);
  const double base = 0.25 * y_cap;
  for (std::size_t v = 0; v < nv1; ++v) {
    const double residual = prob.b[v] - partial[v];  // what y - z must add
    x0[m + v] = base + std::max(residual, 0.0);
    x0[m + nv1 + v] = base + std::max(-residual, 0.0);
    assert(x0[m + v] < y_cap && x0[m + nv1 + v] < y_cap);
  }
  out.x0 = std::move(x0);
  return out;
}

// Copies the stage LPs' folded counters into the result's duplicate
// fields (mcmf_solver.h).
void mirror_stats(McmfIpmResult& out) {
  out.path_steps = out.stats.iterations;
  out.newton_steps = out.stats.steps;
  out.rounds = out.stats.rounds;
}

}  // namespace

McmfIpmResult min_cost_max_flow_ipm(const common::Context& ctx,
                                    const graph::Digraph& g, std::size_t s,
                                    std::size_t t, const McmfOptions& opt) {
  McmfIpmResult out;
  const std::size_t m = g.num_arcs();
  rng::Stream stream(opt.seed);

  // ---- Stage A: maximum flow value. Optimum is -F* with F* integral.
  lp::LpOptions lp_a = opt.lp;
  lp_a.epsilon = 0.05;
  StageLp stage_a = build_stage(g, s, t, /*with_f=*/true, 0.0, {},
                                /*slack_penalty=*/2.0, /*f_cost=*/-1.0);
  const auto res_a = lp::lp_solve(ctx, stage_a.problem, stage_a.x0, lp_a);
  out.stats += res_a.stats;
  if (!res_a.converged) {
    mirror_stats(out);
    return out;
  }
  std::int64_t f_star =
      std::llround(res_a.x[m + 2 * stage_a.nv1]);
  f_star = std::max<std::int64_t>(f_star, 0);
  out.max_flow_value = f_star;

  // ---- Stage B: min cost at F = F*, with perturbation + boosting.
  const double big_m = static_cast<double>(std::max<std::int64_t>(
      g.max_abs_cost(), 1));
  const double d_denom = 4.0 * static_cast<double>(m) * static_cast<double>(m);
  bool have_best = false;
  std::vector<std::int64_t> best_flow;
  std::int64_t best_cost = 0;
  for (std::size_t attempt = 0; attempt <= opt.max_retries; ++attempt) {
    rng::Stream pert = stream.child(attempt);
    linalg::Vec q_tilde(m);
    for (std::size_t a = 0; a < m; ++a) {
      const double noise =
          static_cast<double>(
              pert.next_int(1, static_cast<std::int64_t>(2 * m))) /
          d_denom;
      q_tilde[a] = static_cast<double>(g.arc(a).cost) + noise;
    }
    lp::LpOptions lp_b = opt.lp;
    lp_b.epsilon = 1.0 / (3.0 * d_denom);
    const double lambda = 4.0 * static_cast<double>(m) * (big_m + 1.0);
    // Candidate targets in descending order: stage A's rounding can be
    // off by one in either direction, so probe F*+1 first (a max-flow
    // overshoot fails the value check and falls through harmlessly).
    for (std::int64_t f_target : {f_star + 1, f_star, f_star - 1}) {
      if (f_target < 0) continue;
      StageLp stage_b = build_stage(g, s, t, /*with_f=*/false,
                                    static_cast<double>(f_target), q_tilde,
                                    lambda, 0.0);
      const auto res_b = lp::lp_solve(ctx, stage_b.problem, stage_b.x0, lp_b);
      out.stats += res_b.stats;
      // Centering can stall at extreme path parameters in double precision
      // while the iterate is already rounding-grade; the feasibility and
      // value checks below are the authoritative validation, so attempt
      // the rounding regardless of the convergence flag.
      std::vector<std::int64_t> flow(m);
      for (std::size_t a = 0; a < m; ++a) {
        flow[a] = std::clamp<std::int64_t>(std::llround(res_b.x[a]), 0,
                                           g.arc(a).capacity);
      }
      if (!graph::is_feasible_flow(g, flow, s, t)) continue;
      const std::int64_t value = graph::flow_value(g, flow, s);
      if (value != f_target) continue;
      const std::int64_t cost = graph::flow_cost(g, flow);
      // Keep the best (max value, then min cost) candidate.
      if (!have_best || value > graph::flow_value(g, best_flow, s) ||
          (value == graph::flow_value(g, best_flow, s) && cost < best_cost)) {
        have_best = true;
        best_flow = flow;
        best_cost = cost;
      }
      break;  // this perturbation produced a feasible rounding
    }
    out.retries = attempt;
    if (have_best && graph::flow_value(g, best_flow, s) >= f_star) {
      break;  // boosted enough
    }
  }

  if (have_best) {
    out.flow.flow = best_flow;
    out.flow.value = graph::flow_value(g, best_flow, s);
    out.flow.cost = best_cost;
    out.exact = true;
    out.max_flow_value = out.flow.value;
  }
  mirror_stats(out);
  return out;
}

}  // namespace bcclap::flow
