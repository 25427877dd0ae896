// Golden pins for the broadcast superstep engine: for fixed (graph, seed)
// cases the sparsifier's output edge list, its round count, the
// accountant's per-label breakdown and the deduction-consistency verdict
// are pinned to values recorded before the engine's message and inbox
// representation changed. Any change to delivery order, edge lookup,
// candidate grouping or round costing shows up here as a mismatch. Every
// case runs at 1 and 4 threads.
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
                     std::size_t threads) {
  RuntimeOptions opts;
  opts.threads = threads;
  Runtime rt(opts);
  const auto res = sparsify::spectral_sparsify_apriori(
      rt.context().with_seed(seed), g,
      testsupport::small_sparsify_options(1.0, 2, 4));
  return {edge_list_hash(res.sparsifier), res.stats.rounds, {},
          res.deduction_consistent};
}

graph::Graph gnp(std::size_t n, std::uint64_t graph_seed) {
  rng::Stream s(graph_seed);
  return graph::random_connected_gnp(n, 0.5, 8, s);
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
  const Pin want{18443444754432997199ull, 2465,
                 {{"spanner/step1", 40},
                  {"spanner/step2", 69},
                  {"spanner/step3.1", 820},
                  {"spanner/step3.2", 794},
                  {"spanner/step4", 742},
                  {"sparsify/final-sample", 0}},
                 true};
  expect_pin(run_adhoc(gnp(64, 8), 17, GetParam()), want);
}

TEST_P(SuperstepGolden, Gnp96) {
  const Pin want{7710679312898685166ull, 4665,
                 {{"spanner/step1", 48},
                  {"spanner/step2", 91},
                  {"spanner/step3.1", 1566},
                  {"spanner/step3.2", 1518},
                  {"spanner/step4", 1442},
                  {"sparsify/final-sample", 0}},
                 true};
  expect_pin(run_adhoc(gnp(96, 8), 29, GetParam()), want);
}

// At t = 4 the bundles of G(64, 1/2) take every edge and the final-sample
// superstep is silent. One spanner per bundle and two outer iterations
// leave sampled edges outside the last bundle, so that superstep carries
// traffic too.
TEST_P(SuperstepGolden, Gnp64FinalSampleTraffic) {
  const Pin want{10037787064573855893ull, 256,
                 {{"spanner/step1", 2},
                  {"spanner/step2", 4},
                  {"spanner/step3.1", 78},
                  {"spanner/step3.2", 92},
                  {"spanner/step4", 76},
                  {"sparsify/final-sample", 4}},
                 true};
  expect_pin(run_adhoc(gnp(64, 8), 17, GetParam(), 1, 2), want);
}

TEST_P(SuperstepGolden, AprioriGnp64) {
  // Same coins as Gnp64, so the same edge list (Lemma 3.3); the
  // centralized reference charges no rounds.
  const Pin want{18443444754432997199ull, 0, {}, true};
  expect_pin(run_apriori(gnp(64, 8), 17, GetParam()), want);
}

TEST_P(SuperstepGolden, WeightedMultigraph) {
  // Receivers resolve a sender to the lowest-id edge between the pair, so
  // the higher-id parallel edges never get a deduced belief and the
  // consistency check reports false. The pin records that behaviour.
  const Pin want{1811381162445945270ull, 1291,
                 {{"spanner/step1", 36},
                  {"spanner/step2", 63},
                  {"spanner/step3.1", 396},
                  {"spanner/step3.2", 354},
                  {"spanner/step4", 442},
                  {"sparsify/final-sample", 0}},
                 false};
  expect_pin(run_adhoc(multigraph(), 41, GetParam()), want);
}

// k = 3 runs two step-3 phases (and two step-1/step-2 phases) per
// spanner, a path the k = 2 cases never reach.
TEST_P(SuperstepGolden, Gnp64StretchThree) {
  const Pin want{16427370059418926864ull, 2879,
                 {{"spanner/step1", 120},
                  {"spanner/step2", 159},
                  {"spanner/step3.1", 1080},
                  {"spanner/step3.2", 1018},
                  {"spanner/step4", 502},
                  {"sparsify/final-sample", 0}},
                 true};
  expect_pin(run_adhoc(gnp(64, 8), 17, GetParam(), 4, 0, 3), want);
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
