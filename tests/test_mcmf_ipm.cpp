// Theorem 1.1 end-to-end: the LP-based min-cost max-flow must reproduce the
// exact integral optimum computed by the combinatorial baseline.
#include "flow/mcmf_solver.h"

#include <gtest/gtest.h>

#include "flow/mcmf_lp.h"
#include "flow/ssp.h"
#include "graph/generators.h"
#include "support/comparators.h"
#include "support/fixtures.h"

namespace bcclap::flow {
namespace {

using testsupport::test_context;

struct Case {
  std::size_t n;
  std::size_t extra;
  std::int64_t cap;
  std::int64_t cost;
  std::uint64_t seed;
};

class McmfExactness : public ::testing::TestWithParam<Case> {};

TEST_P(McmfExactness, MatchesSspBaseline) {
  const Case c = GetParam();
  rng::Stream stream(c.seed);
  const auto g =
      graph::random_flow_network(c.n, c.extra, c.cap, c.cost, stream);
  const std::size_t s = 0, t = c.n - 1;

  const auto baseline = min_cost_max_flow_ssp(g, s, t);

  McmfOptions opt;
  opt.seed = c.seed * 977 + 13;
  const auto ipm = min_cost_max_flow_ipm(test_context(opt.seed), g, s, t, opt);
  ASSERT_TRUE(ipm.exact) << "pipeline failed to produce a feasible rounding";
  EXPECT_EQ(ipm.flow.value, baseline.value) << "max-flow value mismatch";
  EXPECT_EQ(ipm.flow.cost, baseline.cost) << "min-cost mismatch";
  EXPECT_TRUE(graph::is_feasible_flow(g, ipm.flow.flow, s, t));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, McmfExactness,
    ::testing::Values(Case{6, 8, 4, 3, 1}, Case{8, 12, 5, 4, 2},
                      Case{8, 12, 5, 4, 3}, Case{10, 15, 3, 5, 4},
                      Case{10, 20, 6, 2, 5}, Case{12, 18, 4, 4, 6}));

TEST(McmfIpm, TrivialSingleArc) {
  graph::Digraph g(2);
  g.add_arc(0, 1, 7, 3);
  McmfOptions opt;
  const auto res = min_cost_max_flow_ipm(test_context(opt.seed), g, 0, 1, opt);
  ASSERT_TRUE(res.exact);
  EXPECT_EQ(res.flow.value, 7);
  EXPECT_EQ(res.flow.cost, 21);
}

TEST(McmfIpm, ChoosesCheaperParallelRoute) {
  graph::Digraph g(4);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 3, 2, 1);
  g.add_arc(0, 2, 2, 4);
  g.add_arc(2, 3, 2, 4);
  McmfOptions opt;
  const auto res = min_cost_max_flow_ipm(test_context(opt.seed), g, 0, 3, opt);
  ASSERT_TRUE(res.exact);
  EXPECT_EQ(res.flow.value, 4);
  // 2 units via the cheap path (cost 4) + 2 via the expensive (cost 16).
  EXPECT_EQ(res.flow.cost, 20);
}

TEST(McmfIpm, ReportsComplexityCounters) {
  rng::Stream stream(9);
  const auto g = graph::random_flow_network(8, 10, 3, 3, stream);
  McmfOptions opt;
  const auto res = min_cost_max_flow_ipm(test_context(opt.seed), g, 0, 7, opt);
  EXPECT_GT(res.path_steps, 0u);
  EXPECT_GT(res.newton_steps, 0u);
  EXPECT_GT(res.rounds, 0);
}

// The flow run folds every stage LP's RunStats in: the Gram engine's key
// and panel count survive, next to the duplicated step and round fields.
TEST(McmfIpm, StatsCarryEveryStageLp) {
  rng::Stream stream(3);
  const auto g = graph::random_flow_network(12, 16, 3, 3, stream);
  McmfOptions opt;
  const auto res = min_cost_max_flow_ipm(test_context(opt.seed), g, 0, 11, opt);
  ASSERT_TRUE(res.exact);
  EXPECT_EQ(res.stats.engine, "exact-dense");
  EXPECT_GT(res.stats.steps, 0u);
  EXPECT_GE(res.stats.panels, res.stats.steps);
  EXPECT_EQ(res.stats.iterations, res.path_steps);
  EXPECT_EQ(res.stats.steps, res.newton_steps);
  EXPECT_EQ(res.stats.rounds, res.rounds);
}

TEST(McmfLpFormulation, InteriorPointIsStrictlyFeasible) {
  rng::Stream stream(5);
  const auto g = graph::random_flow_network(8, 12, 5, 3, stream);
  auto pert = stream.child("p");
  const auto lp = build_mcmf_lp(g, 0, 7, pert);
  // Strictly inside the box.
  for (std::size_t i = 0; i < lp.interior_point.size(); ++i) {
    EXPECT_GT(lp.interior_point[i], lp.problem.lower[i]);
    EXPECT_LT(lp.interior_point[i], lp.problem.upper[i]);
  }
  // A^T x0 = b (= 0 for the combined formulation).
  const auto ax = lp.problem.a.multiply_transpose(lp.interior_point);
  EXPECT_TRUE(testsupport::VecNear(ax, lp.problem.b, 1e-9));
}

TEST(McmfLpFormulation, PerturbationPreservesOrder) {
  // q~ = D q + noise with noise < D: the perturbed costs order-embed the
  // original ones.
  rng::Stream stream(6);
  const auto g = graph::random_flow_network(10, 15, 4, 6, stream);
  auto pert = stream.child("p");
  const auto lp = build_mcmf_lp(g, 0, 9, pert);
  for (std::size_t a = 0; a < g.num_arcs(); ++a) {
    const auto base = g.arc(a).cost * lp.cost_scale;
    EXPECT_GT(lp.perturbed_cost[a], base);
    EXPECT_LT(lp.perturbed_cost[a], base + lp.cost_scale);
  }
}

}  // namespace
}  // namespace bcclap::flow
