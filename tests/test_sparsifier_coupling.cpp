// The constructive Lemma 3.3 test: under a shared seed (survival coins +
// cluster-marking bits), the ad-hoc Broadcast-CONGEST sparsifier
// (Algorithm 5) and the a-priori reference (Algorithm 4) must produce
// *identical* output graphs. This is strictly stronger than the lemma's
// distributional equality and machine-checks its coupling argument.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "sparsify/spectral_sparsify.h"
#include "support/fixtures.h"

namespace bcclap::sparsify {
namespace {

using testsupport::test_context;

struct Case {
  std::size_t n;
  double p;       // density (1.0 = complete)
  std::int64_t w;
  std::size_t t;
  std::uint64_t seed;
};

class Coupling : public ::testing::TestWithParam<Case> {};

TEST_P(Coupling, AdHocEqualsApriori) {
  const Case c = GetParam();
  rng::Stream gstream(c.seed);
  const graph::Graph g =
      c.p >= 1.0 ? graph::complete(c.n, c.w, gstream)
                 : graph::random_connected_gnp(c.n, c.p, c.w, gstream);
  const auto opt = testsupport::small_sparsify_options(1.0, 2, c.t);
  auto net = testsupport::bc_net(g);
  const auto adhoc = spectral_sparsify(
      net.context().with_seed(c.seed ^ 0x5a5a), g, opt, net);
  const auto apriori =
      spectral_sparsify_apriori(test_context(c.seed ^ 0x5a5a), g, opt);

  ASSERT_TRUE(adhoc.deduction_consistent);
  ASSERT_EQ(adhoc.original_edge, apriori.original_edge)
      << "ad-hoc and a-priori sampled different edge sets";
  ASSERT_EQ(adhoc.sparsifier.num_edges(), apriori.sparsifier.num_edges());
  for (std::size_t i = 0; i < adhoc.sparsifier.num_edges(); ++i) {
    const auto& a = adhoc.sparsifier.edge(i);
    const auto& b = apriori.sparsifier.edge(i);
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.v, b.v);
    EXPECT_DOUBLE_EQ(a.weight, b.weight);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Coupling,
    ::testing::Values(Case{12, 1.0, 1, 1, 1}, Case{12, 1.0, 1, 2, 2},
                      Case{16, 1.0, 4, 2, 3}, Case{20, 0.5, 3, 2, 4},
                      Case{20, 0.5, 3, 3, 5}, Case{24, 0.3, 8, 2, 6},
                      Case{16, 0.7, 2, 1, 7}, Case{28, 0.25, 5, 2, 8},
                      Case{14, 1.0, 6, 3, 9}, Case{18, 0.4, 1, 2, 10}));

TEST(Coupling, ManySeedsOnOneGraph) {
  rng::Stream gstream(77);
  const auto g = graph::complete(14, 3, gstream);
  const auto opt = testsupport::small_sparsify_options(1.0, 2, 2);
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    auto net = testsupport::bc_net(g);
    const auto adhoc =
        spectral_sparsify(net.context().with_seed(seed), g, opt, net);
    const auto apriori = spectral_sparsify_apriori(test_context(seed), g, opt);
    ASSERT_EQ(adhoc.original_edge, apriori.original_edge)
        << "diverged at seed " << seed;
  }
}

// Both variants stop at the bundle fixpoint: the first iteration whose
// bundle holds every edge of E_{i-1}. They must stop at the same iteration
// and return the same graph, including when that iteration is past the
// first. Returns the ad-hoc run, its fixpoint rounds and the cap L.
struct FixpointRun {
  SparsifyResult adhoc;
  std::int64_t fixpoint_rounds;
  std::size_t resolved_iterations;
};

FixpointRun expect_coupled_fixpoint(const graph::Graph& g, std::size_t t,
                                    std::uint64_t seed) {
  const auto opt = testsupport::small_sparsify_options(1.0, 2, t);
  auto net = testsupport::bc_net(g);
  auto adhoc = spectral_sparsify(net.context().with_seed(seed), g, opt, net);
  const auto apriori = spectral_sparsify_apriori(test_context(seed), g, opt);
  EXPECT_EQ(adhoc.stats.iterations, apriori.stats.iterations);
  EXPECT_EQ(adhoc.original_edge, apriori.original_edge);
  EXPECT_EQ(adhoc.sparsifier.num_edges(), apriori.sparsifier.num_edges());
  for (std::size_t i = 0; i < adhoc.sparsifier.num_edges() &&
                          i < apriori.sparsifier.num_edges();
       ++i) {
    EXPECT_EQ(adhoc.sparsifier.edge(i).weight,
              apriori.sparsifier.edge(i).weight);
  }
  return {std::move(adhoc), net.accountant().total_for("sparsify/fixpoint"),
          resolve_options(g, opt).iterations};
}

TEST(CouplingFixpoint, LateFixpointOnSparseGnp) {
  // G(128, 0.2) at t = 2 and G(256, 0.3) at t = 3 sit at the edge of the
  // regime where one bundle holds the graph: the loop runs a few
  // iterations, then a bundle takes every remaining edge.
  struct Late {
    std::size_t n;
    double p;
    std::size_t t;
    std::uint64_t seed;
  };
  for (const Late c : {Late{128, 0.2, 2, 1}, Late{128, 0.2, 2, 2},
                       Late{128, 0.2, 2, 3}, Late{256, 0.3, 3, 1},
                       Late{256, 0.3, 3, 2}}) {
    SCOPED_TRACE(::testing::Message()
                 << "n " << c.n << " p " << c.p << " t " << c.t << " seed "
                 << c.seed);
    rng::Stream gstream(c.seed);
    const auto g = graph::random_connected_gnp(c.n, c.p, 4, gstream);
    const FixpointRun run = expect_coupled_fixpoint(g, c.t, c.seed ^ 0x5a5a);
    const std::size_t ran = run.adhoc.stats.iterations;
    EXPECT_GT(ran, 1u);
    EXPECT_LT(ran, run.resolved_iterations);
    // One stop check per iteration run, the stopping one included.
    EXPECT_EQ(run.fixpoint_rounds,
              testsupport::expected_fixpoint_rounds(g, ran,
                                                    run.resolved_iterations));
  }
}

TEST(CouplingFixpoint, SparseGnpAtBothBundleSizes) {
  // G(256, 0.2): t = 2 never reaches the fixpoint, t = 3 stops after the
  // first bundle. Either way the variants agree.
  for (const std::size_t t : {2u, 3u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << "t " << t << " seed " << seed);
      rng::Stream gstream(seed);
      const auto g = graph::random_connected_gnp(256, 0.2, 4, gstream);
      const FixpointRun run = expect_coupled_fixpoint(g, t, seed ^ 0x5a5a);
      EXPECT_EQ(run.adhoc.stats.iterations,
                t == 2 ? run.resolved_iterations : 1u);
    }
  }
}

TEST(CouplingFixpoint, CompleteGraphNeverReachesFixpoint) {
  rng::Stream gstream(12);
  const auto g = graph::complete(128, 4, gstream);
  const FixpointRun run = expect_coupled_fixpoint(g, 3, 77);
  const std::size_t L = run.resolved_iterations;
  EXPECT_EQ(run.adhoc.stats.iterations, L);
  // Every iteration before the last checks once; the last has nothing
  // after it to skip. Each check costs 2 rounds (ecc 1), and the first 1
  // more to build the BFS tree.
  EXPECT_EQ(run.fixpoint_rounds, static_cast<std::int64_t>(2 * L - 1));
  EXPECT_EQ(run.fixpoint_rounds,
            testsupport::expected_fixpoint_rounds(g, L, L));
  EXPECT_LT(run.adhoc.sparsifier.num_edges(), g.num_edges());
}

TEST(CouplingFixpoint, ComponentsStopOnTheirOwn) {
  // A vertex hears only its own component, so each component stops at its
  // own fixpoint: G(64, 1/2) next to complete(64), at t = 4. The sparse
  // component stops after one bundle and keeps every edge with its own
  // weight; the complete one runs on alone and sheds edges. The variants
  // still agree.
  rng::Stream gstream(8);
  const auto gnp = graph::random_connected_gnp(64, 0.5, 8, gstream);
  const auto clique = graph::complete(64, 8, gstream);
  graph::Graph g(128);
  for (const auto& ed : gnp.edges()) g.add_edge(ed.u, ed.v, ed.weight);
  for (const auto& ed : clique.edges()) {
    g.add_edge(64 + ed.u, 64 + ed.v, ed.weight);
  }
  const FixpointRun run = expect_coupled_fixpoint(g, 4, 17);
  EXPECT_GT(run.adhoc.stats.iterations, 1u);

  std::size_t gnp_kept = 0;
  std::size_t clique_kept = 0;
  for (std::size_t i = 0; i < run.adhoc.sparsifier.num_edges(); ++i) {
    const graph::EdgeId e = run.adhoc.original_edge[i];
    if (e < gnp.num_edges()) {
      ++gnp_kept;
      EXPECT_EQ(run.adhoc.sparsifier.edge(i).weight, g.edge(e).weight);
    } else {
      ++clique_kept;
    }
  }
  EXPECT_EQ(gnp_kept, gnp.num_edges());
  EXPECT_LT(clique_kept, clique.num_edges());
  // The first check pays the deeper tree (G(64, 1/2): 3 * 2 rounds); later
  // checks pay only the still-running clique (2 * 1 rounds).
  const auto later = static_cast<std::int64_t>(
      std::min(run.adhoc.stats.iterations, run.resolved_iterations - 1) - 1);
  EXPECT_EQ(run.fixpoint_rounds, 6 + 2 * later);
}

}  // namespace
}  // namespace bcclap::sparsify
