#include "spanner/probabilistic_spanner.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "graph/generators.h"
#include "spanner/baswana_sen.h"
#include "spanner/cluster.h"
#include "sparsify/spectral_sparsify.h"
#include "support/fixtures.h"

namespace bcclap::spanner {
namespace {

using testsupport::bc_net;

struct Case {
  std::size_t n;
  double gp;      // graph density
  std::int64_t w; // max weight
  std::size_t k;
  double pe;      // edge existence probability
  std::uint64_t seed;
};

class ProbSpanner : public ::testing::TestWithParam<Case> {};

TEST_P(ProbSpanner, OutputIsSpannerOfSurvivingGraph) {
  const Case c = GetParam();
  rng::Stream gstream(c.seed);
  const auto g = graph::random_connected_gnp(c.n, c.gp, c.w, gstream);
  auto net = bc_net(g);

  rng::Stream edges(c.seed ^ 0x1111);
  rng::Stream marks(c.seed ^ 0x2222);
  ProbabilisticSpannerOptions opt;
  opt.k = c.k;
  const ExistenceOracle oracle = [&](graph::EdgeId) {
    return edges.bernoulli(c.pe);
  };
  const auto res =
      spanner_with_probabilistic_edges(g, opt, oracle, marks, net);

  // Lemma 3.1: S = (V, F+) is a (2k-1)-spanner of (V, F+ u E'') for any
  // E'' of undecided edges; take E'' = all undecided edges.
  std::set<graph::EdgeId> decided(res.f_plus.begin(), res.f_plus.end());
  decided.insert(res.f_minus.begin(), res.f_minus.end());
  graph::Graph survivors(g.num_vertices());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (!decided.count(e) ||
        std::count(res.f_plus.begin(), res.f_plus.end(), e)) {
      const auto& ed = g.edge(e);
      survivors.add_edge(ed.u, ed.v, ed.weight);
    }
  }
  // Map spanner edges into the survivors graph.
  std::vector<graph::EdgeId> mapped;
  for (graph::EdgeId e : res.f_plus) {
    const auto& ed = g.edge(e);
    const auto found = survivors.find_edge(ed.u, ed.v);
    ASSERT_TRUE(found.has_value());
    mapped.push_back(*found);
  }
  EXPECT_TRUE(verify_stretch(survivors, mapped,
                             static_cast<double>(2 * c.k - 1)));
  // The implicit-communication claim (Section 3.1): every neighbour's
  // deduced F-set matches the decider's.
  EXPECT_TRUE(res.deduction_consistent);
  // F+ and F- are disjoint.
  for (graph::EdgeId e : res.f_plus) {
    EXPECT_EQ(std::count(res.f_minus.begin(), res.f_minus.end(), e), 0);
  }
  EXPECT_GT(res.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProbSpanner,
    ::testing::Values(Case{16, 0.4, 1, 2, 1.0, 1}, Case{16, 0.4, 1, 2, 0.5, 2},
                      Case{24, 0.3, 6, 3, 0.25, 3},
                      Case{24, 0.3, 6, 3, 1.0, 4},
                      Case{32, 0.2, 4, 2, 0.75, 5},
                      Case{32, 0.2, 4, 4, 0.5, 6},
                      Case{20, 0.6, 9, 3, 0.1, 7},
                      Case{40, 0.15, 2, 3, 0.5, 8}));

TEST(ProbSpanner, ProbabilityOneNeverDeletes) {
  rng::Stream gstream(31);
  const auto g = graph::random_connected_gnp(25, 0.3, 5, gstream);
  auto net = bc_net(g);
  rng::Stream marks(32);
  ProbabilisticSpannerOptions opt;
  opt.k = 3;
  const ExistenceOracle always = [](graph::EdgeId) { return true; };
  const auto res = spanner_with_probabilistic_edges(g, opt, always, marks, net);
  EXPECT_TRUE(res.f_minus.empty());
  EXPECT_TRUE(res.deduction_consistent);
  EXPECT_TRUE(verify_stretch(g, res.f_plus, 5.0));
}

TEST(ProbSpanner, ProbabilityZeroAddsNothing) {
  rng::Stream gstream(41);
  const auto g = graph::random_connected_gnp(20, 0.3, 3, gstream);
  auto net = bc_net(g);
  rng::Stream marks(42);
  ProbabilisticSpannerOptions opt;
  opt.k = 2;
  const ExistenceOracle never = [](graph::EdgeId) { return false; };
  const auto res = spanner_with_probabilistic_edges(g, opt, never, marks, net);
  EXPECT_TRUE(res.f_plus.empty());
  EXPECT_TRUE(res.deduction_consistent);
}

TEST(ProbSpanner, RespectsAvailabilityMask) {
  rng::Stream gstream(51);
  const auto g = graph::random_connected_gnp(20, 0.4, 3, gstream);
  auto net = bc_net(g);
  rng::Stream marks(52);
  ProbabilisticSpannerOptions opt;
  opt.k = 2;
  opt.available.assign(g.num_edges(), true);
  // Exclude even edge ids.
  for (std::size_t e = 0; e < g.num_edges(); e += 2) opt.available[e] = false;
  const ExistenceOracle always = [](graph::EdgeId) { return true; };
  const auto res = spanner_with_probabilistic_edges(g, opt, always, marks, net);
  for (graph::EdgeId e : res.f_plus) EXPECT_EQ(e % 2, 1u);
  for (graph::EdgeId e : res.f_minus) EXPECT_EQ(e % 2, 1u);
}

TEST(ProbSpanner, OracleCalledAtMostOncePerEdge) {
  rng::Stream gstream(61);
  const auto g = graph::random_connected_gnp(24, 0.4, 4, gstream);
  auto net = bc_net(g);
  rng::Stream marks(62);
  rng::Stream edges(63);
  std::vector<int> calls(g.num_edges(), 0);
  ProbabilisticSpannerOptions opt;
  opt.k = 3;
  const ExistenceOracle oracle = [&](graph::EdgeId e) {
    ++calls[e];
    return edges.bernoulli(0.5);
  };
  (void)spanner_with_probabilistic_edges(g, opt, oracle, marks, net);
  for (int c : calls) EXPECT_LE(c, 1);
}

TEST(ProbSpanner, OrientationCoversAllSpannerEdges) {
  rng::Stream gstream(71);
  const auto g = graph::random_connected_gnp(30, 0.3, 2, gstream);
  auto net = bc_net(g);
  rng::Stream marks(72);
  ProbabilisticSpannerOptions opt;
  opt.k = 3;
  const ExistenceOracle always = [](graph::EdgeId) { return true; };
  const auto res = spanner_with_probabilistic_edges(g, opt, always, marks, net);
  ASSERT_EQ(res.f_plus.size(), res.out_vertex.size());
  for (std::size_t i = 0; i < res.f_plus.size(); ++i) {
    const auto& ed = g.edge(res.f_plus[i]);
    EXPECT_TRUE(res.out_vertex[i] == ed.u || res.out_vertex[i] == ed.v);
  }
  const auto deg = out_degrees(g.num_vertices(), res.out_vertex);
  std::size_t total = 0;
  for (auto d : deg) total += d;
  EXPECT_EQ(total, res.f_plus.size());
}

TEST(ProbSpanner, RoundsScaleWithWeightBits) {
  // Lemma 3.2: the log W factor. Same graph topology, heavier weights.
  rng::Stream gstream(81);
  auto g1 = graph::random_connected_gnp(24, 0.3, 1, gstream);
  graph::Graph g2(g1.num_vertices());
  for (const auto& e : g1.edges()) {
    g2.add_edge(e.u, e.v, e.weight * (1 << 20));
  }
  const ExistenceOracle always = [](graph::EdgeId) { return true; };
  ProbabilisticSpannerOptions opt;
  opt.k = 3;
  auto net1 = bc_net(g1);
  rng::Stream marks1(82);
  const auto r1 =
      spanner_with_probabilistic_edges(g1, opt, always, marks1, net1);
  auto net2 = bc_net(g2);
  rng::Stream marks2(82);
  const auto r2 =
      spanner_with_probabilistic_edges(g2, opt, always, marks2, net2);
  EXPECT_GT(r2.rounds, r1.rounds);
}

// G(48, 0.4) with integer weights in [1, 8], reweighted edge by edge.
template <typename Reweight>
graph::Graph reweighted_gnp(Reweight&& reweight) {
  rng::Stream gstream(3);
  const auto base = graph::random_connected_gnp(48, 0.4, 8, gstream);
  graph::Graph g(base.num_vertices());
  for (const auto& e : base.edges()) g.add_edge(e.u, e.v, reweight(e));
  return g;
}

graph::Graph fractional_weights() {
  return reweighted_gnp([](const graph::Edge& e) {
    return e.weight + 0.25 * static_cast<double>((e.u + e.v) % 3);
  });
}

graph::Graph integer_weights() {
  return reweighted_gnp([](const graph::Edge& e) { return e.weight; });
}

graph::Graph sub_unit_weights() {
  return reweighted_gnp([](const graph::Edge& e) { return e.weight * 1e-3; });
}

// Receivers compare against the exact weight, so non-integer weights must
// reach them exactly: rounding them on the wire breaks the deduction rules
// (rule 2 compares (w, u) pairs) and the step-3 eligibility threshold.
void expect_exact_deduction(const graph::Graph& g) {
  for (const std::size_t k : {2u, 3u}) {
    auto net = bc_net(g);
    rng::Stream marks(5);
    rng::Stream edges(6);
    ProbabilisticSpannerOptions opt;
    opt.k = k;
    const ExistenceOracle oracle = [&](graph::EdgeId) {
      return edges.bernoulli(0.5);
    };
    const auto res =
        spanner_with_probabilistic_edges(g, opt, oracle, marks, net);
    EXPECT_TRUE(res.deduction_consistent) << k;
  }
  // The sparsifier's bundles (k = 2, t = 4) over the same weights.
  auto net = bc_net(g);
  const auto opt = testsupport::small_sparsify_options(1.0, 2, 4);
  const auto res =
      sparsify::spectral_sparsify(net.context().with_seed(3), g, opt, net);
  EXPECT_TRUE(res.deduction_consistent);
}

TEST(ProbSpanner, FractionalWeightsDeduceExactly) {
  expect_exact_deduction(fractional_weights());
}

TEST(ProbSpanner, SubUnitWeightsDeduceExactly) {
  expect_exact_deduction(sub_unit_weights());
}

// A non-integer weight travels as a 64-bit field, so the same topology
// costs more rounds than with its integer weights; integer runs keep the
// ceil(log2 W)-bit field.
TEST(ProbSpanner, NonIntegerWeightsAreChargedSixtyFourBits) {
  const ExistenceOracle always = [](graph::EdgeId) { return true; };
  ProbabilisticSpannerOptions opt;
  opt.k = 2;
  const auto rounds_of = [&](const graph::Graph& g) {
    auto net = bc_net(g);
    rng::Stream marks(9);
    return spanner_with_probabilistic_edges(g, opt, always, marks, net).rounds;
  };
  EXPECT_GT(rounds_of(sub_unit_weights()), rounds_of(integer_weights()));
}

TEST(ProbSpanner, NonFiniteWeightsThrow) {
  rng::Stream gstream(91);
  const auto g = graph::random_connected_gnp(12, 0.5, 3, gstream);
  const ExistenceOracle always = [](graph::EdgeId) { return true; };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    auto net = bc_net(g);
    rng::Stream marks(92);
    ProbabilisticSpannerOptions opt;
    opt.weights = testsupport::edge_weights(g);
    opt.weights[1] = bad;
    EXPECT_THROW(spanner_with_probabilistic_edges(g, opt, always, marks, net),
                 std::invalid_argument);
    // An unavailable edge's weight is never sent, so it is not checked.
    opt.available.assign(g.num_edges(), true);
    opt.available[1] = false;
    EXPECT_NO_THROW(
        spanner_with_probabilistic_edges(g, opt, always, marks, net));
  }
}

}  // namespace
}  // namespace bcclap::spanner
