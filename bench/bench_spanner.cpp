// E1 + E2 (Lemmas 3.1, 3.2): spanner size O(k n^{1+1/k}), out-degree
// O(k n^{1/k}), rounds O(k n^{1/k} (log n + log W)).
//
// Counters reported per configuration:
//   edges       spanner size |F+|
//   size_bound  k * n^{1+1/k} (the paper's bound, for shape comparison)
//   max_outdeg  max out-degree of the Lemma 3.1 orientation
//   rounds      BC rounds charged by the simulator
#include <benchmark/benchmark.h>

#include <cmath>

#include "graph/generators.h"
#include "spanner/cluster.h"
#include "spanner/probabilistic_spanner.h"
#include "support/harness.h"

namespace {

using namespace bcclap;
using bench::bench_context;

void BM_SpannerSweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const std::int64_t w = state.range(2);
  rng::Stream gstream(n * 1000 + k);
  const auto g = graph::random_connected_gnp(n, 8.0 / std::sqrt((double)n), w,
                                             gstream);
  double edges = 0, outdeg = 0, rounds = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    bcc::Network net(bcc::Model::kBroadcastCongest, g,
                     bcc::Network::default_bandwidth(n), bench_context());
    rng::Stream marks(runs + 17);
    rng::Stream coin(runs + 29);
    spanner::ProbabilisticSpannerOptions opt;
    opt.k = k;
    const spanner::ExistenceOracle oracle = [&](graph::EdgeId) {
      return coin.bernoulli(0.5);
    };
    const auto res =
        spanner::spanner_with_probabilistic_edges(g, opt, oracle, marks, net);
    benchmark::DoNotOptimize(res.f_plus.size());
    edges += static_cast<double>(res.f_plus.size());
    const auto deg = spanner::out_degrees(n, res.out_vertex);
    std::size_t mx = 0;
    for (auto d : deg) mx = std::max(mx, d);
    outdeg += static_cast<double>(mx);
    rounds += static_cast<double>(res.rounds);
    ++runs;
  }
  const double r = static_cast<double>(runs);
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(g.num_edges());
  state.counters["edges"] = edges / r;
  state.counters["size_bound"] =
      static_cast<double>(k) *
      std::pow(static_cast<double>(n), 1.0 + 1.0 / static_cast<double>(k));
  state.counters["max_outdeg"] = outdeg / r;
  state.counters["outdeg_bound"] =
      static_cast<double>(k) *
      std::pow(static_cast<double>(n), 1.0 / static_cast<double>(k));
  state.counters["rounds"] = rounds / r;
}

BENCHMARK(BM_SpannerSweep)
    ->ArgsProduct({{32, 64, 128, 256}, {2, 3, 5}, {8}})
    ->Unit(benchmark::kMillisecond);

// E2: the log W factor in the round complexity (Lemma 3.2).
void BM_SpannerWeightBits(benchmark::State& state) {
  const std::int64_t wmax = state.range(0);
  const std::size_t n = 64;
  rng::Stream gstream(7);
  const auto g = graph::random_connected_gnp(n, 0.15, wmax, gstream);
  double rounds = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    bcc::Network net(bcc::Model::kBroadcastCongest, g,
                     bcc::Network::default_bandwidth(n), bench_context());
    rng::Stream marks(runs + 3);
    spanner::ProbabilisticSpannerOptions opt;
    opt.k = 3;
    const spanner::ExistenceOracle always = [](graph::EdgeId) { return true; };
    const auto res =
        spanner::spanner_with_probabilistic_edges(g, opt, always, marks, net);
    rounds += static_cast<double>(res.rounds);
    ++runs;
  }
  state.counters["log2_W"] = std::log2(static_cast<double>(wmax));
  state.counters["rounds"] = rounds / static_cast<double>(runs);
}

BENCHMARK(BM_SpannerWeightBits)
    ->Arg(2)->Arg(1 << 8)->Arg(1 << 16)->Arg(1 << 30)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
