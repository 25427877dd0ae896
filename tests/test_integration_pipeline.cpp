// End-to-end integration across the Figure 1 pipeline:
// spanner -> sparsifier -> Laplacian solver -> SDD engine -> LP -> flow.
#include <gtest/gtest.h>

#include "core/runtime.h"
#include "flow/mcmf_solver.h"
#include "flow/ssp.h"
#include "graph/generators.h"
#include "laplacian/bcc_solver.h"
#include "laplacian/engine.h"
#include "laplacian/solver.h"
#include "lp/lp_solver.h"
#include "sparsify/verifier.h"
#include "support/comparators.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

using testsupport::test_context;

TEST(Pipeline, SparsifierFeedsLaplacianSolver) {
  rng::Stream gstream(1);
  const auto g = graph::complete(32, 6, gstream);
  const auto opt = testsupport::small_sparsify_options(0.5, 2, 4);
  laplacian::SparsifiedLaplacianSolver solver(test_context(404), g, opt);
  // The preconditioner is a genuine sparsifier of G.
  const auto check = sparsify::check_sparsifier(g, solver.sparsifier());
  ASSERT_TRUE(check.valid);
  EXPECT_GT(check.lambda_min, 0.0);
  // And the solver built on it reaches high precision.
  linalg::Vec b(32, 0.0);
  b[0] = 1.0;
  b[31] = -1.0;
  const auto y = solver.solve(b, 1e-9);
  const auto x = laplacian::exact_laplacian_solve(test_context(), g, b);
  EXPECT_TRUE(testsupport::EnergyNormWithin(g, y, x, 1e-9));
}

TEST(Pipeline, SparsifiedSddEngineMatchesExact) {
  // Gremban + sparsifier + Chebyshev vs dense LDL^T on the same SDD system.
  rng::Stream stream(2);
  linalg::DenseMatrix m(10, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      if (stream.next_double() < 0.6) {
        const double v = -1.0 - 2.0 * stream.next_double();
        m(i, j) = v;
        m(j, i) = v;
      }
    }
  }
  for (std::size_t i = 0; i < 10; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 10; ++j)
      if (j != i) s += std::abs(m(i, j));
    m(i, i) = s + 1.0;
  }
  const auto y = testsupport::gaussian_vector(10, stream);

  auto& registry = laplacian::EngineRegistry::instance();
  laplacian::SddEngineOptions eopt;
  eopt.network_n = 10;
  auto exact = registry.create_sdd("exact-dense", test_context(), m, eopt);
  auto sparsified =
      registry.create_sdd("sparsified-chebyshev", test_context(777), m, eopt);
  const auto xe = exact->solve(y, 1e-10);
  const auto xs = sparsified->solve(y, 1e-10);
  EXPECT_TRUE(testsupport::VecNear(xe, xs, 1e-6));
  EXPECT_GT(sparsified->rounds_charged(), 0);
}

TEST(Pipeline, LpWithSparsifiedGramFactory) {
  // The full Theorem 1.4 wiring: the IPM's (A^T D A)-solves go through the
  // Gremban + sparsifier + Chebyshev stack instead of dense LDL^T.
  const auto p = testsupport::diamond_lp();
  lp::LpOptions opt;
  opt.epsilon = 1e-4;
  std::uint64_t counter = 0;
  opt.gram_factory = [&counter](const linalg::DenseMatrix& gram) {
    return laplacian::EngineRegistry::instance().create_sdd(
        "sparsified-chebyshev", test_context(1000 + counter++), gram, {});
  };
  const auto res =
      lp::lp_solve(test_context(opt.seed), p, {0.5, 0.5, 0.5, 0.5}, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.objective, 2.0, 5e-2);
}

TEST(Pipeline, FlowOnGridLikeNetwork) {
  // A structured (non-random) instance through the whole stack.
  graph::Digraph g(6);
  g.add_arc(0, 1, 3, 1);
  g.add_arc(0, 2, 2, 2);
  g.add_arc(1, 3, 2, 1);
  g.add_arc(1, 4, 2, 3);
  g.add_arc(2, 4, 2, 1);
  g.add_arc(3, 5, 3, 1);
  g.add_arc(4, 5, 3, 1);
  const auto baseline = flow::min_cost_max_flow_ssp(g, 0, 5);
  flow::McmfOptions opt;
  const auto ipm =
      flow::min_cost_max_flow_ipm(test_context(opt.seed), g, 0, 5, opt);
  ASSERT_TRUE(ipm.exact);
  EXPECT_EQ(ipm.flow.value, baseline.value);
  EXPECT_EQ(ipm.flow.cost, baseline.cost);
}

TEST(Pipeline, RoundAccountingAccumulatesAcrossLayers) {
  rng::Stream gstream(3);
  const auto g = graph::complete(20, 2, gstream);
  const auto opt = testsupport::small_sparsify_options(1.0, 2, 2);
  laplacian::SparsifiedLaplacianSolver solver(test_context(55), g, opt);
  const auto pre = solver.preprocessing_rounds();
  EXPECT_GT(pre, 0);
  linalg::Vec b(20, 0.0);
  b[0] = 1.0;
  b[1] = -1.0;
  laplacian::SolveStats st;
  solver.solve(b, 1e-4, &st);
  EXPECT_EQ(solver.accountant().total(), pre + st.rounds);
}

TEST(Pipeline, RunStatsPropagateThroughFacade) {
  // The unified core::RunStats shape carries rounds through every facade
  // entry point, consistent with the per-layer accounting underneath.
  rng::Stream gstream(8);
  const auto g = graph::complete(24, 4, gstream);
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 55;
  Runtime rt(ropts);
  const auto sopt = testsupport::small_sparsify_options(0.5, 2, 3);

  const auto sp = rt.sparsify(g, sopt);
  EXPECT_GT(sp.stats.rounds, 0);
  EXPECT_EQ(sp.stats.iterations,
            sparsify::resolve_options(g, sopt).iterations);

  linalg::Vec b(24, 0.0);
  b[0] = 1.0;
  b[23] = -1.0;
  LaplacianSolveOptions lopt;
  lopt.sparsify = sopt;
  const auto lap = rt.solve_laplacian(g, b, lopt);
  ASSERT_TRUE(lap.usable);
  // Facade rounds = preprocessing + per-instance solve, matching the
  // layer's own split.
  laplacian::SparsifiedLaplacianSolver solver(rt.context(), g, sopt);
  laplacian::SolveStats st;
  const auto x = solver.solve(b, lopt.eps, &st);
  EXPECT_EQ(lap.preprocessing_rounds, solver.preprocessing_rounds());
  EXPECT_EQ(lap.stats.rounds, solver.preprocessing_rounds() + st.rounds);
  EXPECT_EQ(lap.stats.iterations, st.iterations);
  EXPECT_EQ(lap.x, x);

  // LP layer: the run's rounds land in the unified stats.
  const auto p = testsupport::diamond_lp();
  lp::LpOptions lpopt;
  lpopt.epsilon = 1e-4;
  const auto res = lp::lp_solve(rt.context(), p, {0.5, 0.5, 0.5, 0.5}, lpopt);
  ASSERT_TRUE(res.converged);
  EXPECT_GT(res.stats.rounds, 0);
}

}  // namespace
}  // namespace bcclap
