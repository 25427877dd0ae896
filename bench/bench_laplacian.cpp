// E5 (Theorem 1.3 / Corollary 2.4): Laplacian solver — iterations ~
// log(1/eps), measured energy-norm error <= eps, preprocessing vs
// per-instance round split. Runs on the shared harness.
#include "support/harness.h"

#include <cmath>
#include <memory>
#include <string>

#include "graph/generators.h"
#include "graph/laplacian.h"
#include "laplacian/prepared.h"
#include "laplacian/solver.h"
#include "linalg/cholesky.h"

namespace {

using namespace bcclap;

// Deterministic diagonally-dominant SPD matrix: symmetric uniform noise
// with diagonal n. Built once per case so the measured body is the
// factorization itself, not the generator.
linalg::DenseMatrix make_spd(std::size_t n, std::uint64_t seed) {
  rng::Stream stream(seed);
  linalg::DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = i == j ? static_cast<double>(n)
                              : stream.next_double() - 0.5;
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

// E5b (PR 3): blocked LDLT factorization throughput — the last O(n^3)
// kernel on the hot path, now fanned out over the worker pool. The
// fingerprint counter is a bitwise function of the factor (solve is
// sequential), so the bench doubles as a cross-thread determinism gate.
void ldlt_factor_n(bench::State& s, const linalg::DenseMatrix& a) {
  const std::size_t n = a.rows();
  const auto f = linalg::LdltFactor::factor(bench::bench_context(), a);
  if (!f) {
    s.counter("factor_ok", 0.0);
    return;
  }
  linalg::Vec b(n, 0.0);
  b[0] = 1.0;
  b[n - 1] = -1.0;
  s.counter("n", static_cast<double>(n));
  s.counter("factor_ok", 1.0);
  s.counter("fingerprint_xnorm", linalg::norm2(f->solve(b)));
}

// Per-component factorization fan-out on a disconnected union of random
// components (the Gremban-reduction workload shape).
void component_factor_n(bench::State& s, std::size_t n_per_comp,
                        std::size_t comps) {
  rng::Stream gstream(n_per_comp * 31 + comps);
  graph::Graph g(n_per_comp * comps);
  for (std::size_t c = 0; c < comps; ++c) {
    const auto part = graph::random_connected_gnp(
        n_per_comp, 0.3, static_cast<std::int64_t>(c + 2), gstream);
    for (std::size_t e = 0; e < part.num_edges(); ++e) {
      const auto& ed = part.edge(e);
      g.add_edge(ed.u + c * n_per_comp, ed.v + c * n_per_comp, ed.weight);
    }
  }
  const auto f =
      linalg::ComponentLaplacianFactor::factor(bench::bench_context(),
                                               graph::laplacian(g));
  if (!f) {
    s.counter("factor_ok", 0.0);
    return;
  }
  linalg::Vec b(g.num_vertices(), 0.0);
  for (std::size_t v = 0; v < g.num_vertices(); ++v)
    b[v] = (v % 2 == 0) ? 1.0 : -1.0;
  s.counter("n", static_cast<double>(g.num_vertices()));
  s.counter("components", static_cast<double>(f->num_components()));
  s.counter("factor_ok", 1.0);
  s.counter("fingerprint_xnorm",
            linalg::norm2(f->solve_many(bench::bench_context(),
                                        linalg::DenseMatrix::from_columns({b}))
                              .column(0)));
}

// PR 5: batched multi-RHS panels — "factor once, solve many". The body
// pays sparsify + factor once, then solves a k-wide panel through one
// shared Chebyshev loop; per-RHS cost is wall / k. scripts/bench.sh gates
// on the k = 32 per-RHS cost landing strictly below k = 1 (amortization).
// The instance is the bounded-degree sparse generator at n = 256
// (ROADMAP "Larger workloads"): batched cases scale n without inheriting
// the dense n = 256 pipeline case's wall time.
void batched_solve_k(bench::State& s, const graph::Graph& g, std::size_t k) {
  const std::size_t n = g.num_vertices();
  sparsify::SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.k = 2;
  opt.t = 2;
  const auto ctx = bench::bench_context(4242);
  const auto solver = laplacian::prepare_sparsified_chebyshev(ctx, g, opt);
  rng::Stream bstream(n * 13 + k);
  linalg::DenseMatrix b(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) b(i, j) = bstream.next_gaussian();
  }
  laplacian::EngineOptions eopt;
  eopt.eps = 1e-8;
  core::RunStats stats;
  const auto x = solver->apply_many(ctx, b, eopt, &stats);
  s.counter("n", static_cast<double>(n));
  s.counter("k", static_cast<double>(k));
  s.counter("iterations", static_cast<double>(stats.iterations));
  s.counter("panel_rounds", static_cast<double>(stats.rounds));
  s.counter("preproc_rounds",
            static_cast<double>(solver->preprocessing_rounds()));
  double frob = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* xi = x.row_data(i);
    for (std::size_t j = 0; j < x.cols(); ++j) frob += xi[j] * xi[j];
  }
  s.counter("fingerprint_xfrob", std::sqrt(frob));
}

void laplacian_solve_eps(bench::State& s, int eps_exp) {
  const double eps = std::pow(10.0, -static_cast<double>(eps_exp));
  const std::size_t n = 48;
  rng::Stream gstream(5);
  const auto g = graph::complete(n, 6, gstream);
  sparsify::SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.k = 2;
  opt.t = 4;
  const auto ctx = bench::bench_context(1001);
  const auto solver = laplacian::prepare_sparsified_chebyshev(ctx, g, opt);
  rng::Stream bstream(6);
  linalg::Vec b(n);
  for (auto& v : b) v = bstream.next_gaussian();
  linalg::remove_mean(b);
  const auto exact =
      laplacian::exact_laplacian_solve(bench::bench_context(), g, b);
  const double ref = laplacian::laplacian_norm(bench::bench_context(), g,
                                               exact);

  laplacian::EngineOptions eopt;
  eopt.eps = eps;
  core::RunStats stats;
  const auto y = solver->apply(ctx, b, eopt, &stats);
  s.counter("eps", eps);
  s.counter("iterations", static_cast<double>(stats.iterations));
  s.counter("instance_rounds", static_cast<double>(stats.rounds));
  s.counter("preproc_rounds",
            static_cast<double>(solver->preprocessing_rounds()));
  s.counter("measured_err",
            laplacian::laplacian_norm(bench::bench_context(), g,
                                      linalg::sub(exact, y)) /
                ref);
}

void laplacian_solve_n(bench::State& s, std::size_t n) {
  rng::Stream gstream(n);
  const auto g = graph::complete(n, 4, gstream);
  sparsify::SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.k = 2;
  opt.t = 2;
  const auto ctx = bench::bench_context(n * 7);
  const auto solver = laplacian::prepare_sparsified_chebyshev(ctx, g, opt);
  linalg::Vec b(n, 0.0);
  b[0] = 1.0;
  b[n - 1] = -1.0;
  laplacian::EngineOptions eopt;
  eopt.eps = 1e-8;
  core::RunStats stats;
  const auto y = solver->apply(ctx, b, eopt, &stats);
  s.counter("n", static_cast<double>(n));
  s.counter("instance_rounds", static_cast<double>(stats.rounds));
  s.counter("preproc_rounds",
            static_cast<double>(solver->preprocessing_rounds()));
  s.counter("fingerprint_ynorm", linalg::norm2(y));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_laplacian");
  for (int e = 1; e <= 10; ++e) {
    h.add("laplacian_solve_eps/eps=1e-" + std::to_string(e),
          [e](bench::State& s) { laplacian_solve_eps(s, e); });
  }
  for (const std::size_t n : {16u, 32u, 64u, 96u}) {
    h.add("laplacian_solve_n/n=" + std::to_string(n),
          [n](bench::State& s) { laplacian_solve_n(s, n); });
  }
  // PR 3: n >= 256 factorization instances — per-node compute dominates
  // dispatch at these sizes, so multi-core speedups become observable.
  for (const std::size_t n : {256u, 384u, 512u}) {
    auto a = std::make_shared<linalg::DenseMatrix>(make_spd(n, n * 7 + 3));
    h.add("ldlt_factor/n=" + std::to_string(n),
          [a](bench::State& s) { ldlt_factor_n(s, *a); });
  }
  h.add("component_factor/n=256/comps=4",
        [](bench::State& s) { component_factor_n(s, 64, 4); });
  // PR 5: batched multi-RHS panels on the bounded-degree sparse generator
  // (degree <= 2 + 2*8) — n = 256 without the dense case's wall time.
  {
    rng::Stream gstream(256 * 5 + 1);
    auto g = std::make_shared<graph::Graph>(
        graph::random_regularish(256, 8, 4, gstream));
    for (const std::size_t k : {1u, 8u, 32u}) {
      h.add("batched_solve/n=256/k=" + std::to_string(k),
            [g, k](bench::State& s) { batched_solve_k(s, *g, k); });
    }
  }
  return h.run(argc, argv);
}
