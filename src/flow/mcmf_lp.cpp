#include "flow/mcmf_lp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bcclap::flow {

namespace {

// Variable layout: [x (m arcs)] [y (nv-1)] [z (nv-1)] [F (1, combined only)].
struct Layout {
  std::size_t m;
  std::size_t nv1;  // |V| - 1
  bool has_f;
  std::size_t y0() const { return m; }
  std::size_t z0() const { return m + nv1; }
  std::size_t f() const { return m + 2 * nv1; }
  std::size_t total() const { return m + 2 * nv1 + (has_f ? 1 : 0); }
};

}  // namespace

McmfLp build_mcmf_lp(const graph::Digraph& g, std::size_t s, std::size_t t,
                     rng::Stream& stream) {
  graph::check_source_sink(g, s, t, "flow::build_mcmf_lp");
  const std::size_t m = g.num_arcs();
  const std::size_t nv = g.num_vertices();
  const std::int64_t max_cost = std::max<std::int64_t>(g.max_abs_cost(), 1);
  const std::int64_t max_cap = std::max<std::int64_t>(g.max_capacity(), 1);

  McmfLp out;
  out.num_arcs = m;
  out.num_vertices = nv;
  out.s = s;
  out.t = t;

  // Daitch-Spielman perturbation via the isolation lemma: r_e uniform in
  // [1, R] with R = 2m gives a unique min-cost flow with probability >= 1/2
  // when the noise denominator D = 2 m R keeps total noise below the
  // integer cost granularity.
  const std::int64_t big_r = static_cast<std::int64_t>(2 * m);
  out.cost_scale = static_cast<std::int64_t>(2 * m) * big_r;  // D
  out.perturbed_cost.resize(m);
  for (std::size_t a = 0; a < m; ++a) {
    const std::int64_t r = stream.next_int(1, big_r);
    out.perturbed_cost[a] = g.arc(a).cost * out.cost_scale + r;
  }

  const Layout lay{m, nv - 1, /*has_f=*/true};
  auto col = [&](std::size_t v) { return v < s ? v : v - 1; };

  std::vector<linalg::Triplet> trips;
  for (std::size_t a = 0; a < m; ++a) {
    const auto& arc = g.arc(a);
    if (arc.head != s) trips.push_back({a, col(arc.head), 1.0});
    if (arc.tail != s) trips.push_back({a, col(arc.tail), -1.0});
  }
  for (std::size_t v = 0; v < nv; ++v) {
    if (v == s) continue;
    trips.push_back({lay.y0() + col(v), col(v), 1.0});
    trips.push_back({lay.z0() + col(v), col(v), -1.0});
  }
  trips.push_back({lay.f(), col(t), -1.0});

  const double big_m = static_cast<double>(max_cost);
  // Dominance-preserving penalties (see header): the flow bonus beats any
  // path cost in perturbed units; the slack penalty beats the flow bonus.
  out.flow_bonus = 4.0 * static_cast<double>(m) *
                   static_cast<double>(out.cost_scale) * (big_m + 1.0);
  out.lambda = 4.0 * out.flow_bonus;

  const double y_cap =
      4.0 * static_cast<double>(nv + m) * static_cast<double>(max_cap);
  const double f_cap =
      2.0 * static_cast<double>(nv) * static_cast<double>(max_cap);

  lp::LpProblem prob;
  prob.a = linalg::CsrMatrix(lay.total(), nv - 1, std::move(trips));
  prob.b.assign(nv - 1, 0.0);
  prob.c.assign(lay.total(), 0.0);
  prob.lower.assign(lay.total(), 0.0);
  prob.upper.assign(lay.total(), 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    prob.c[a] = static_cast<double>(out.perturbed_cost[a]);
    prob.upper[a] = static_cast<double>(g.arc(a).capacity);
  }
  for (std::size_t i = 0; i < 2 * lay.nv1; ++i) {
    prob.c[lay.y0() + i] = out.lambda;
    prob.upper[lay.y0() + i] = y_cap;
  }
  prob.c[lay.f()] = -2.0 * static_cast<double>(nv) * out.flow_bonus;
  prob.upper[lay.f()] = f_cap;

  // Interior point (Section 5): x = c/2, F = f_cap/2, slacks absorb the
  // residual r = F e_t - B x with a strictly positive base.
  linalg::Vec x0(lay.total(), 0.0);
  for (std::size_t a = 0; a < m; ++a)
    x0[a] = 0.5 * static_cast<double>(g.arc(a).capacity);
  const double f0 = 0.5 * f_cap;
  x0[lay.f()] = f0;
  linalg::Vec residual(nv - 1, 0.0);
  {
    const auto bx = prob.a.multiply_transpose(x0);  // A^T x0 so far
    for (std::size_t v = 0; v < nv - 1; ++v) residual[v] = -bx[v];
  }
  const double base = 0.25 * y_cap;
  for (std::size_t v = 0; v < nv - 1; ++v) {
    x0[lay.y0() + v] = base + std::max(residual[v], 0.0);
    x0[lay.z0() + v] = base + std::max(-residual[v], 0.0);
    assert(x0[lay.y0() + v] < y_cap && x0[lay.z0() + v] < y_cap);
  }
  out.interior_point = std::move(x0);
  out.problem = std::move(prob);
  return out;
}

std::vector<std::int64_t> round_flow(const McmfLp& lp, const linalg::Vec& x) {
  std::vector<std::int64_t> flow(lp.num_arcs);
  for (std::size_t a = 0; a < lp.num_arcs; ++a) {
    flow[a] = std::llround(x[a]);
    flow[a] = std::max<std::int64_t>(flow[a], 0);
  }
  return flow;
}

}  // namespace bcclap::flow
