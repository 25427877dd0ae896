#include "sparsify/spectral_sparsify.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sparsify/verifier.h"
#include "spanner/cluster.h"
#include "support/comparators.h"
#include "support/fixtures.h"

namespace bcclap::sparsify {
namespace {

using testsupport::bc_net;

// Bench-scale options (DESIGN.md section 6).
SparsifyOptions test_options() { return testsupport::small_sparsify_options(); }

TEST(Sparsifier, OutputIsSubsetReweighted) {
  rng::Stream gstream(1);
  const auto g = graph::complete(30, 4, gstream);
  auto net = bc_net(g);
  const auto res =
      spectral_sparsify(net.context().with_seed(99), g, test_options(), net);
  EXPECT_TRUE(res.deduction_consistent);
  EXPECT_LE(res.sparsifier.num_edges(), g.num_edges());
  ASSERT_EQ(res.original_edge.size(), res.sparsifier.num_edges());
  for (std::size_t i = 0; i < res.original_edge.size(); ++i) {
    const auto& se = res.sparsifier.edge(i);
    const auto& oe = g.edge(res.original_edge[i]);
    EXPECT_EQ(se.u, oe.u);
    EXPECT_EQ(se.v, oe.v);
    // Weight is the original scaled by a power of 4 (the resampling
    // reweighting of Algorithms 4/5).
    double ratio = se.weight / oe.weight;
    while (ratio > 1.5) ratio /= 4.0;
    EXPECT_NEAR(ratio, 1.0, 1e-9);
  }
}

TEST(Sparsifier, DeterministicInSeed) {
  rng::Stream gstream(2);
  const auto g = graph::complete(24, 3, gstream);
  auto net1 = bc_net(g);
  auto net2 = bc_net(g);
  const auto r1 =
      spectral_sparsify(net1.context().with_seed(7), g, test_options(), net1);
  const auto r2 =
      spectral_sparsify(net2.context().with_seed(7), g, test_options(), net2);
  EXPECT_EQ(r1.original_edge, r2.original_edge);
  EXPECT_EQ(r1.stats.rounds, r2.stats.rounds);
}

TEST(Sparsifier, DifferentSeedsGiveDifferentSamples) {
  rng::Stream gstream(3);
  const auto g = graph::complete(24, 3, gstream);
  auto net1 = bc_net(g);
  auto net2 = bc_net(g);
  const auto r1 =
      spectral_sparsify(net1.context().with_seed(7), g, test_options(), net1);
  const auto r2 =
      spectral_sparsify(net2.context().with_seed(8), g, test_options(), net2);
  EXPECT_NE(r1.original_edge, r2.original_edge);
}

TEST(Sparsifier, SparsifiesDenseGraphs) {
  // With a single-spanner bundle, the last bundle holds O(k n^{1+1/k})
  // edges and the leftovers decay by 1/4 per iteration, so K64 (2016
  // edges) must compress substantially.
  rng::Stream gstream(4);
  const auto g = graph::complete(64, 2, gstream);
  SparsifyOptions opt = test_options();
  opt.t = 1;
  auto net = bc_net(g);
  const auto res = spectral_sparsify(net.context().with_seed(21), g, opt, net);
  EXPECT_LT(res.sparsifier.num_edges(), (3 * g.num_edges()) / 4);
}

TEST(Sparsifier, SpectralQualityOnDenseGraph) {
  rng::Stream gstream(5);
  const auto g = graph::complete(36, 1, gstream);
  SparsifyOptions opt = test_options();
  opt.t = 6;  // more bundles -> better quality
  auto net = bc_net(g);
  const auto res = spectral_sparsify(net.context().with_seed(31), g, opt, net);
  const auto check = check_sparsifier(g, res.sparsifier);
  ASSERT_TRUE(check.valid);
  // With bench-scale t the constant-factor guarantee is loose; assert a
  // sane bound and positivity (connectivity).
  EXPECT_GT(check.lambda_min, 0.05);
  EXPECT_LT(check.achieved_epsilon(), 4.0);
}

TEST(Sparsifier, OrientationMatchesEdges) {
  rng::Stream gstream(6);
  const auto g = graph::complete(20, 2, gstream);
  auto net = bc_net(g);
  const auto res =
      spectral_sparsify(net.context().with_seed(41), g, test_options(), net);
  ASSERT_EQ(res.out_vertex.size(), res.sparsifier.num_edges());
  for (std::size_t i = 0; i < res.out_vertex.size(); ++i) {
    const auto& ed = res.sparsifier.edge(i);
    EXPECT_TRUE(res.out_vertex[i] == ed.u || res.out_vertex[i] == ed.v);
  }
}

TEST(Sparsifier, ResolveOptionsPaperDefaults) {
  rng::Stream gstream(7);
  const auto g = graph::complete(16, 1, gstream);
  SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.t_constant = 400.0;  // paper constant
  const auto resolved = resolve_options(g, opt);
  EXPECT_EQ(resolved.k, 4u);  // ceil(log2 16)
  // t = 400 log^2(n) / eps^2 = 400 * 16 / 0.25 = 25600.
  EXPECT_EQ(resolved.t, 25600u);
  EXPECT_EQ(resolved.iterations, 7u);  // ceil(log2 120)
}

TEST(Sparsifier, ChargesRounds) {
  rng::Stream gstream(8);
  const auto g = graph::complete(20, 3, gstream);
  auto net = bc_net(g);
  const auto res =
      spectral_sparsify(net.context().with_seed(51), g, test_options(), net);
  EXPECT_TRUE(testsupport::RoundsConsistent(res.stats.rounds, net));
}

}  // namespace
}  // namespace bcclap::sparsify
