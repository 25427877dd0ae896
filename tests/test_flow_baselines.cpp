#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "flow/dinic.h"
#include "flow/ssp.h"
#include "graph/generators.h"

namespace bcclap::flow {
namespace {

TEST(Dinic, HandComputedMaxFlow) {
  // s=0, t=3. Two disjoint paths of caps 2 and 3 -> max flow 5.
  graph::Digraph g(4);
  g.add_arc(0, 1, 2, 0);
  g.add_arc(1, 3, 2, 0);
  g.add_arc(0, 2, 3, 0);
  g.add_arc(2, 3, 3, 0);
  const auto res = max_flow_dinic(g, 0, 3);
  EXPECT_EQ(res.value, 5);
  EXPECT_TRUE(graph::is_feasible_flow(g, res.flow, 0, 3));
}

TEST(Dinic, BottleneckRespected) {
  graph::Digraph g(3);
  g.add_arc(0, 1, 10, 0);
  g.add_arc(1, 2, 4, 0);
  const auto res = max_flow_dinic(g, 0, 2);
  EXPECT_EQ(res.value, 4);
}

TEST(Ssp, HandComputedMinCost) {
  // Two s-t paths: cheap cap 1 (cost 1), expensive cap 2 (cost 5).
  // Max flow 3 -> cost 1*1 + 2*10 hmm: path A: 0->1->3 (cap1, cost 1+0),
  // path B: 0->2->3 (cap2, cost 5+0). Min cost of max flow = 1 + 10 = 11.
  graph::Digraph g(4);
  g.add_arc(0, 1, 1, 1);
  g.add_arc(1, 3, 1, 0);
  g.add_arc(0, 2, 2, 5);
  g.add_arc(2, 3, 2, 0);
  const auto res = min_cost_max_flow_ssp(g, 0, 3);
  EXPECT_EQ(res.value, 3);
  EXPECT_EQ(res.cost, 11);
  EXPECT_TRUE(graph::is_feasible_flow(g, res.flow, 0, 3));
}

TEST(Ssp, PrefersCheaperPath) {
  // Shared bottleneck: only 1 unit fits; must take the cheap path.
  graph::Digraph g(4);
  g.add_arc(0, 1, 1, 10);
  g.add_arc(0, 2, 1, 1);
  g.add_arc(1, 3, 1, 0);
  g.add_arc(2, 3, 1, 0);
  // t-side bottleneck:
  graph::Digraph g2(5);
  g2.add_arc(0, 1, 1, 10);
  g2.add_arc(0, 2, 1, 1);
  g2.add_arc(1, 3, 1, 0);
  g2.add_arc(2, 3, 1, 0);
  g2.add_arc(3, 4, 1, 0);
  const auto res = min_cost_max_flow_ssp(g2, 0, 4);
  EXPECT_EQ(res.value, 1);
  EXPECT_EQ(res.cost, 1);
}

class BaselineAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineAgreement, SspValueMatchesDinic) {
  rng::Stream stream(GetParam());
  const auto g = graph::random_flow_network(14, 30, 9, 6, stream);
  const auto dinic = max_flow_dinic(g, 0, 13);
  const auto ssp = min_cost_max_flow_ssp(g, 0, 13);
  EXPECT_EQ(ssp.value, dinic.value);
  EXPECT_TRUE(graph::is_feasible_flow(g, ssp.flow, 0, 13));
  EXPECT_LE(ssp.cost, dinic.cost);  // min-cost among max flows
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(FlowHelpers, FeasibilityChecks) {
  graph::Digraph g(3);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 2, 2, 1);
  EXPECT_TRUE(graph::is_feasible_flow(g, {1, 1}, 0, 2));
  EXPECT_FALSE(graph::is_feasible_flow(g, {1, 0}, 0, 2));  // conservation
  EXPECT_FALSE(graph::is_feasible_flow(g, {3, 3}, 0, 2));  // capacity
  EXPECT_FALSE(graph::is_feasible_flow(g, {-1, -1}, 0, 2));
  EXPECT_EQ(graph::flow_value(g, {2, 2}, 0), 2);
  EXPECT_EQ(graph::flow_cost(g, {2, 2}), 4);
}

TEST(FlowHelpers, AddArcRejectsBadArcs) {
  graph::Digraph g(3);
  EXPECT_THROW(g.add_arc(1, 1, 2, 0), std::invalid_argument);  // self-loop
  EXPECT_THROW(g.add_arc(0, 3, 2, 0), std::invalid_argument);  // head
  EXPECT_THROW(g.add_arc(900, 1, 2, 0), std::invalid_argument);  // tail
  EXPECT_THROW(g.add_arc(0, 1, 0, 0), std::invalid_argument);  // capacity
  EXPECT_THROW(g.add_arc(0, 1, -2, 0), std::invalid_argument);
  EXPECT_EQ(g.num_arcs(), 0u);
  EXPECT_EQ(g.add_arc(0, 1, 1, -4), 0u);
}

// The path 0 -> 1 -> 2 -> 3 with unit capacities.
graph::Digraph unit_path() {
  graph::Digraph g(4);
  g.add_arc(0, 1, 1, 0);
  g.add_arc(1, 2, 1, 0);
  g.add_arc(2, 3, 1, 0);
  return g;
}

TEST(AugmentingPath, ZeroFlowReachesTheSink) {
  const auto g = unit_path();
  std::size_t layers = 0;
  EXPECT_TRUE(graph::has_augmenting_path(g, {0, 0, 0}, 0, 3, &layers));
  EXPECT_EQ(layers, 3u);  // one round per hop
  EXPECT_TRUE(graph::has_augmenting_path(g, {0, 0, 0}, 0, 1, &layers));
  EXPECT_EQ(layers, 1u);
  EXPECT_TRUE(graph::has_augmenting_path(g, {0, 0, 0}, 0, 3));
}

TEST(AugmentingPath, LayersCountTheRoundThatReachesNothing) {
  // Saturated path: s broadcasts once and reaches nobody.
  const auto g = unit_path();
  std::size_t layers = 0;
  EXPECT_FALSE(graph::has_augmenting_path(g, {1, 1, 1}, 0, 3, &layers));
  EXPECT_EQ(layers, 1u);
  // 0 -> 1 has room, 1 -> 2 is saturated: s reaches 1 in round 1, and 1's
  // broadcast in round 2 reaches only s again.
  graph::Digraph h(3);
  h.add_arc(0, 1, 2, 0);
  h.add_arc(1, 2, 1, 0);
  EXPECT_FALSE(graph::has_augmenting_path(h, {1, 1}, 0, 2, &layers));
  EXPECT_EQ(layers, 2u);
  // No arcs at all.
  EXPECT_FALSE(graph::has_augmenting_path(graph::Digraph(2), {}, 0, 1,
                                          &layers));
  EXPECT_EQ(layers, 1u);
}

TEST(AugmentingPath, FollowsBackwardResidualArcs) {
  // One unit on 0 -> 1 -> 2 -> 3 saturates the path; the free arcs 0 -> 2
  // and 1 -> 3 reach t only through the backward residual arc 2 -> 1 of
  // the flow on 1 -> 2: 0 -> 2 -> 1 -> 3, three rounds.
  graph::Digraph g(4);
  g.add_arc(0, 1, 1, 0);
  g.add_arc(1, 2, 1, 0);
  g.add_arc(2, 3, 1, 0);
  g.add_arc(0, 2, 1, 0);
  g.add_arc(1, 3, 1, 0);
  const std::vector<std::int64_t> flow = {1, 1, 1, 0, 0};
  ASSERT_TRUE(graph::is_feasible_flow(g, flow, 0, 3));
  std::size_t layers = 0;
  EXPECT_TRUE(graph::has_augmenting_path(g, flow, 0, 3, &layers));
  EXPECT_EQ(layers, 3u);
  // With the 1 -> 2 flow rerouted over 0 -> 2 -> 3 both units are out of
  // s, so the flow is maximum.
  EXPECT_FALSE(graph::has_augmenting_path(g, {1, 0, 1, 1, 1}, 0, 3, &layers));
}

TEST(AugmentingPath, MinCostMaxFlowIsCertifiedMaximum) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    rng::Stream stream(seed);
    const std::size_t n = 6 + seed % 10;
    const auto g = graph::random_flow_network(n, 2 * n, 5, 4, stream);
    const auto ssp = min_cost_max_flow_ssp(g, 0, n - 1);
    std::size_t layers = 0;
    EXPECT_FALSE(graph::has_augmenting_path(g, ssp.flow, 0, n - 1, &layers))
        << "seed " << seed;
    EXPECT_GE(layers, 1u);
    EXPECT_LE(layers, n);
    // The empty flow is never maximum on these networks: each has an
    // s-t path through every vertex.
    EXPECT_TRUE(graph::has_augmenting_path(
        g, std::vector<std::int64_t>(g.num_arcs(), 0), 0, n - 1))
        << "seed " << seed;
  }
}

TEST(AugmentingPath, RejectsBadArguments) {
  const auto g = unit_path();
  EXPECT_THROW(graph::has_augmenting_path(g, {0, 0, 0}, 4, 3),
               std::invalid_argument);
  EXPECT_THROW(graph::has_augmenting_path(g, {0, 0, 0}, 0, 9),
               std::invalid_argument);
  EXPECT_THROW(graph::has_augmenting_path(g, {0, 0, 0}, 2, 2),
               std::invalid_argument);
  EXPECT_THROW(graph::has_augmenting_path(g, {0, 0}, 0, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace bcclap::flow
