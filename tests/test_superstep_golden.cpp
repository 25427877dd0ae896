// Golden pins for the broadcast superstep engine: for fixed (graph, seed)
// cases the sparsifier's output edge list, its round count, the
// accountant's per-label breakdown and the deduction-consistency verdict
// are pinned. Any change to delivery order, edge lookup, candidate
// grouping, round costing or the sparsifier's stopping rule shows up here
// as a mismatch. Every case runs at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/runtime.h"
#include "graph/generators.h"
#include "spanner/probabilistic_spanner.h"
#include "sparsify/spectral_sparsify.h"
#include "support/fixtures.h"
#include "support/fnv.h"

namespace bcclap {
namespace {

using Breakdown = std::map<std::string, std::int64_t>;

// FNV-1a over the sparsifier's (u, v, weight-bits) edge list.
std::uint64_t edge_list_hash(const graph::Graph& h) {
  testsupport::Fnv hash;
  for (const graph::Edge& e : h.edges()) {
    hash.feed(static_cast<std::uint64_t>(e.u));
    hash.feed(static_cast<std::uint64_t>(e.v));
    hash.feed(e.weight);
  }
  return hash.value();
}

struct Pin {
  std::uint64_t hash;
  std::int64_t rounds;
  Breakdown breakdown;
  bool deduction_consistent;
};

void expect_pin(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.hash, want.hash);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.breakdown, want.breakdown);
  EXPECT_EQ(got.deduction_consistent, want.deduction_consistent);
}

// Algorithm 5 (stretch parameter k, bundle size t) on a BC network over g,
// inside a dedicated `threads`-worker Runtime. `iterations` = 0 keeps the
// paper's ceil(log2 m) outer iterations.
Pin run_adhoc(const graph::Graph& g, std::uint64_t seed,
                   std::size_t threads, std::size_t t = 4,
                   std::size_t iterations = 0, std::size_t k = 2) {
  RuntimeOptions opts;
  opts.threads = threads;
  Runtime rt(opts);
  auto net = testsupport::bc_net(rt.context(), g);
  auto opt = testsupport::small_sparsify_options(1.0, k, t);
  opt.iterations = iterations;
  const auto res =
      sparsify::spectral_sparsify(rt.context().with_seed(seed), g, opt, net);
  return {edge_list_hash(res.sparsifier), res.stats.rounds,
          net.accountant().breakdown(), res.deduction_consistent};
}

// One standalone Section 3.1 spanner (stretch parameter k) under a
// stateful Bernoulli(1/2) oracle: the oracle draws from a sequential
// stream, so the pin also covers the engine's ordered sampling path. The
// hash runs over F+, F- and the orientation, in output order.
Pin run_stateful_spanner(const graph::Graph& g, std::size_t k,
                         std::size_t threads) {
  RuntimeOptions opts;
  opts.threads = threads;
  Runtime rt(opts);
  auto net = testsupport::bc_net(rt.context(), g);
  rng::Stream marks(11);
  rng::Stream coins(13);
  spanner::ProbabilisticSpannerOptions opt;
  opt.k = k;
  opt.pure_oracle = false;
  const spanner::ExistenceOracle oracle = [&](graph::EdgeId) {
    return coins.bernoulli(0.5);
  };
  const auto res =
      spanner::spanner_with_probabilistic_edges(g, opt, oracle, marks, net);
  testsupport::Fnv hash;
  for (const auto* ids : {&res.f_plus, &res.f_minus}) {
    hash.feed(static_cast<std::uint64_t>(ids->size()));
    for (graph::EdgeId e : *ids) hash.feed(static_cast<std::uint64_t>(e));
  }
  for (graph::VertexId v : res.out_vertex) {
    hash.feed(static_cast<std::uint64_t>(v));
  }
  return {hash.value(), res.rounds, net.accountant().breakdown(),
          res.deduction_consistent};
}

Pin run_apriori(const graph::Graph& g, std::uint64_t seed,
                std::size_t threads, std::size_t t = 4) {
  RuntimeOptions opts;
  opts.threads = threads;
  Runtime rt(opts);
  const auto res = sparsify::spectral_sparsify_apriori(
      rt.context().with_seed(seed), g,
      testsupport::small_sparsify_options(1.0, 2, t));
  return {edge_list_hash(res.sparsifier), res.stats.rounds, {},
          res.deduction_consistent};
}

graph::Graph gnp(std::size_t n, std::uint64_t graph_seed) {
  rng::Stream s(graph_seed);
  return graph::random_connected_gnp(n, 0.5, 8, s);
}

// G(128, 0.2) with weights in [1, 4].
graph::Graph sparse_gnp() {
  rng::Stream s(2);
  return graph::random_connected_gnp(128, 0.2, 4, s);
}

// G(64, 1/2) on vertices 0..63 beside complete(64) on 64..127: the
// components stop at their own fixpoints.
graph::Graph two_components() {
  rng::Stream s(8);
  const graph::Graph gnp = graph::random_connected_gnp(64, 0.5, 8, s);
  const graph::Graph clique = graph::complete(64, 8, s);
  graph::Graph g(128);
  for (const auto& ed : gnp.edges()) g.add_edge(ed.u, ed.v, ed.weight);
  for (const auto& ed : clique.edges()) {
    g.add_edge(64 + ed.u, 64 + ed.v, ed.weight);
  }
  return g;
}

// A weighted multigraph: G(40, 0.3) plus a parallel copy of every third
// edge with a different weight, so edge lookups between one pair of
// vertices have more than one answer.
graph::Graph multigraph() {
  rng::Stream s(404);
  graph::Graph g = graph::random_connected_gnp(40, 0.3, 8, s);
  const std::size_t m = g.num_edges();
  for (std::size_t e = 0; e < m; e += 3) {
    const graph::Edge ed = g.edge(e);
    g.add_edge(ed.u, ed.v, static_cast<double>(1 + (e % 7)));
  }
  return g;
}

class SuperstepGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SuperstepGolden, Gnp64) {
  const Pin want{18157525448859279867ull, 267,
                 {{"spanner/step1", 4},
                  {"spanner/step2", 7},
                  {"spanner/step3.1", 76},
                  {"spanner/step3.2", 84},
                  {"spanner/step4", 90},
                  {"sparsify/final-sample", 0},
                  {"sparsify/fixpoint", 6}},
                 true};
  expect_pin(run_adhoc(gnp(64, 8), 17, GetParam()), want);
}

TEST_P(SuperstepGolden, Gnp96) {
  const Pin want{7061029061966794650ull, 442,
                 {{"spanner/step1", 4},
                  {"spanner/step2", 8},
                  {"spanner/step3.1", 174},
                  {"spanner/step3.2", 110},
                  {"spanner/step4", 140},
                  {"sparsify/final-sample", 0},
                  {"sparsify/fixpoint", 6}},
                 true};
  expect_pin(run_adhoc(gnp(96, 8), 29, GetParam()), want);
}

// At t = 4 the first bundle of G(64, 1/2) takes every edge, so the loop
// stops there after one stop check (6 rounds: vertex 0 has eccentricity
// 2) and the final-sample superstep is silent. One spanner per bundle and two outer iterations leave sampled
// edges outside the last bundle, so that superstep carries traffic too.
TEST_P(SuperstepGolden, Gnp64FinalSampleTraffic) {
  const Pin want{10037787064573855893ull, 262,
                 {{"spanner/step1", 2},
                  {"spanner/step2", 4},
                  {"spanner/step3.1", 78},
                  {"spanner/step3.2", 92},
                  {"spanner/step4", 76},
                  {"sparsify/final-sample", 4},
                  {"sparsify/fixpoint", 6}},
                 true};
  expect_pin(run_adhoc(gnp(64, 8), 17, GetParam(), 1, 2), want);
}

TEST_P(SuperstepGolden, AprioriGnp64) {
  // Same coins as Gnp64, so the same edge list (Lemma 3.3); the
  // centralized reference charges no rounds.
  const Pin want{18157525448859279867ull, 0, {}, true};
  expect_pin(run_apriori(gnp(64, 8), 17, GetParam()), want);
}

TEST_P(SuperstepGolden, WeightedMultigraph) {
  // Receivers resolve a sender to the lowest-id edge between the pair, so
  // the higher-id parallel edges never get a deduced belief and the
  // consistency check reports false. The pin records that behaviour.
  const Pin want{7296418164092749570ull, 142,
                 {{"spanner/step1", 4},
                  {"spanner/step2", 8},
                  {"spanner/step3.1", 46},
                  {"spanner/step3.2", 34},
                  {"spanner/step4", 44},
                  {"sparsify/final-sample", 0},
                  {"sparsify/fixpoint", 6}},
                 false};
  expect_pin(run_adhoc(multigraph(), 41, GetParam()), want);
}

// k = 3 runs two step-3 phases (and two step-1/step-2 phases) per
// spanner, a path the k = 2 cases never reach.
TEST_P(SuperstepGolden, Gnp64StretchThree) {
  const Pin want{6339514859478181752ull, 582,
                 {{"spanner/step1", 24},
                  {"spanner/step2", 32},
                  {"spanner/step3.1", 246},
                  {"spanner/step3.2", 188},
                  {"spanner/step4", 82},
                  {"sparsify/final-sample", 0},
                  {"sparsify/fixpoint", 10}},
                 true};
  expect_pin(run_adhoc(gnp(64, 8), 17, GetParam(), 4, 0, 3), want);
}

// A sparser graph at t = 2 runs several iterations before a bundle takes
// every remaining edge, so its later bundles query the survival coins of
// edges whose probability has already fallen below 1.
TEST_P(SuperstepGolden, SparseGnpLateFixpoint) {
  const Pin want{4946577323113046602ull, 2035,
                 {{"spanner/step1", 16},
                  {"spanner/step2", 32},
                  {"spanner/step3.1", 652},
                  {"spanner/step3.2", 596},
                  {"spanner/step4", 688},
                  {"sparsify/final-sample", 0},
                  {"sparsify/fixpoint", 51}},
                 true};
  expect_pin(run_adhoc(sparse_gnp(), 0x5a58, GetParam(), 2), want);
}

TEST_P(SuperstepGolden, AprioriSparseGnpLateFixpoint) {
  // The a-priori variant stops at the same iteration with the same graph.
  const Pin want{4946577323113046602ull, 0, {}, true};
  expect_pin(run_apriori(sparse_gnp(), 0x5a58, GetParam(), 2), want);
}

// The G(64, 1/2) component stops after its first bundle; the clique runs
// on alone and stops after its second. The first stop check pays the
// deeper BFS tree (3 * 2 rounds), the second only the clique's (2 * 1).
TEST_P(SuperstepGolden, TwoComponents) {
  const Pin want{6234645949757059890ull, 908,
                 {{"spanner/step1", 8},
                  {"spanner/step2", 16},
                  {"spanner/step3.1", 366},
                  {"spanner/step3.2", 332},
                  {"spanner/step4", 178},
                  {"sparsify/final-sample", 0},
                  {"sparsify/fixpoint", 8}},
                 true};
  expect_pin(run_adhoc(two_components(), 17, GetParam()), want);
}

TEST_P(SuperstepGolden, AprioriTwoComponents) {
  const Pin want{6234645949757059890ull, 0, {}, true};
  expect_pin(run_apriori(two_components(), 17, GetParam()), want);
}

TEST_P(SuperstepGolden, StatefulOracleSpanner) {
  const Pin want{6944301005939755795ull, 86,
                 {{"spanner/step1", 3},
                  {"spanner/step2", 4},
                  {"spanner/step3.1", 25},
                  {"spanner/step3.2", 34},
                  {"spanner/step4", 20}},
                 true};
  expect_pin(run_stateful_spanner(gnp(48, 31), 3, GetParam()), want);
}

INSTANTIATE_TEST_SUITE_P(Threads, SuperstepGolden, ::testing::Values(1, 4));

}  // namespace
}  // namespace bcclap
