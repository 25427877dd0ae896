// E11 (Theorem 1.1): exact min-cost max-flow via the LP pipeline — exact-
// match rate against the combinatorial baseline, path steps and rounds vs
// n and vs the magnitude bound M.
#include <benchmark/benchmark.h>

#include <cmath>

#include "flow/mcmf_solver.h"
#include "flow/ssp.h"
#include "graph/generators.h"
#include "support/harness.h"

namespace {

using namespace bcclap;
using bench::bench_context;

void BM_McmfVsN(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  double exact = 0, value_match = 0, cost_match = 0, steps = 0, rounds = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    rng::Stream gstream(runs * 7919 + n);
    const auto g = graph::random_flow_network(n, 2 * n, 5, 4, gstream);
    const auto baseline = flow::min_cost_max_flow_ssp(g, 0, n - 1);
    flow::McmfOptions opt;
    opt.seed = runs * 31 + 5;
    const auto ipm = flow::min_cost_max_flow_ipm(
        bench_context(opt.seed), g, 0, n - 1, opt);
    exact += ipm.exact ? 1 : 0;
    value_match += (ipm.exact && ipm.flow.value == baseline.value) ? 1 : 0;
    cost_match += (ipm.exact && ipm.flow.cost == baseline.cost) ? 1 : 0;
    steps += static_cast<double>(ipm.path_steps);
    rounds += static_cast<double>(ipm.rounds);
    ++runs;
  }
  const double r = static_cast<double>(runs);
  state.counters["n"] = static_cast<double>(n);
  state.counters["feasible_rate"] = exact / r;
  state.counters["value_match_rate"] = value_match / r;
  state.counters["cost_match_rate"] = cost_match / r;
  state.counters["path_steps"] = steps / r;
  state.counters["rounds"] = rounds / r;
  state.counters["sqrt_n"] = std::sqrt(static_cast<double>(n));
}

BENCHMARK(BM_McmfVsN)
    ->Arg(6)->Arg(8)->Arg(10)->Arg(12)->Arg(16)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void BM_McmfVsM(benchmark::State& state) {
  // Magnitude sweep (the log^3 M factor of Theorem 1.1).
  const std::int64_t mag = state.range(0);
  const std::size_t n = 8;
  double cost_match = 0, rounds = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    rng::Stream gstream(runs * 101 + static_cast<std::uint64_t>(mag));
    const auto g = graph::random_flow_network(n, 2 * n, mag, mag, gstream);
    const auto baseline = flow::min_cost_max_flow_ssp(g, 0, n - 1);
    flow::McmfOptions opt;
    opt.seed = runs * 13 + 1;
    const auto ipm = flow::min_cost_max_flow_ipm(
        bench_context(opt.seed), g, 0, n - 1, opt);
    cost_match += (ipm.exact && ipm.flow.cost == baseline.cost &&
                   ipm.flow.value == baseline.value)
                      ? 1
                      : 0;
    rounds += static_cast<double>(ipm.rounds);
    ++runs;
  }
  const double r = static_cast<double>(runs);
  state.counters["M"] = static_cast<double>(mag);
  state.counters["exact_match_rate"] = cost_match / r;
  state.counters["rounds"] = rounds / r;
}

BENCHMARK(BM_McmfVsM)
    ->Arg(2)->Arg(8)->Arg(32)->Arg(128)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
