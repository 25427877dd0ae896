// E10 (Theorem 1.4): LP solver iteration counts. The headline comparison:
// vanilla (g == 1) path following needs ~ sqrt(m)-scaled steps, the
// Lewis-weighted version ~ sqrt(n)-scaled steps — on flow LPs where m
// (arcs + slacks) greatly exceeds n (vertices), the weighted solver's
// short-step schedule takes measurably fewer path steps.
#include <benchmark/benchmark.h>

#include <cmath>

#include "flow/mcmf_lp.h"
#include "graph/generators.h"
#include "lp/lp_solver.h"
#include "support/harness.h"

namespace {

using namespace bcclap;
using bench::bench_context;

// Simple structured LP with m >> n: x in R^m, n block-sum constraints.
lp::LpProblem block_lp(std::size_t blocks, std::size_t per_block,
                       std::uint64_t seed, linalg::Vec* x0) {
  rng::Stream stream(seed);
  const std::size_t m = blocks * per_block;
  std::vector<linalg::Triplet> trips;
  for (std::size_t i = 0; i < m; ++i) trips.push_back({i, i / per_block, 1.0});
  lp::LpProblem p;
  p.a = linalg::CsrMatrix(m, blocks, std::move(trips));
  p.b.assign(blocks, 1.0);
  p.c.resize(m);
  for (auto& v : p.c) v = 1.0 + stream.next_double();
  p.lower.assign(m, 0.0);
  p.upper.assign(m, 1.0);
  x0->assign(m, 1.0 / static_cast<double>(per_block));
  return p;
}

void BM_LpShortStepModes(benchmark::State& state) {
  const std::size_t blocks = static_cast<std::size_t>(state.range(0));
  const std::size_t per_block = static_cast<std::size_t>(state.range(1));
  const bool lewis = state.range(2) != 0;
  linalg::Vec x0;
  const auto prob = block_lp(blocks, per_block, blocks * 100 + per_block, &x0);

  double steps = 0, newton = 0, obj = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    lp::LpOptions opt;
    opt.weights = lewis ? lp::WeightMode::kLewis : lp::WeightMode::kVanilla;
    opt.steps = lp::StepMode::kShortStep;
    opt.alpha_constant = 2.0;
    opt.epsilon = 1e-3;
    const auto res = lp::lp_solve(bench_context(opt.seed), prob, x0,
                                  opt);
    steps += static_cast<double>(res.stats.iterations);
    newton += static_cast<double>(res.stats.steps);
    obj += res.objective;
    ++runs;
  }
  const double r = static_cast<double>(runs);
  state.counters["n"] = static_cast<double>(blocks);
  state.counters["m"] = static_cast<double>(blocks * per_block);
  state.counters["lewis"] = lewis ? 1 : 0;
  state.counters["path_steps"] = steps / r;
  state.counters["newton_steps"] = newton / r;
  state.counters["objective"] = obj / r;
}

BENCHMARK(BM_LpShortStepModes)
    ->ArgsProduct({{4, 8}, {8, 32}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Adaptive mode on min-cost-flow LPs: path steps and rounds vs n.
void BM_LpFlowAdaptive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  rng::Stream gstream(n * 3 + 1);
  const auto g = graph::random_flow_network(n, 2 * n, 5, 4, gstream);
  auto pert = gstream.child("pert");
  const auto mlp = flow::build_mcmf_lp(g, 0, n - 1, pert);

  double steps = 0, newton = 0, rounds = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    lp::LpOptions opt;
    opt.epsilon = 1e-2;
    const auto res = lp::lp_solve(bench_context(opt.seed), mlp.problem,
                                  mlp.interior_point, opt);
    steps += static_cast<double>(res.stats.iterations);
    newton += static_cast<double>(res.stats.steps);
    rounds += static_cast<double>(res.stats.rounds);
    ++runs;
  }
  const double r = static_cast<double>(runs);
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(mlp.problem.a.rows());
  state.counters["path_steps"] = steps / r;
  state.counters["newton_steps"] = newton / r;
  state.counters["rounds"] = rounds / r;
}

BENCHMARK(BM_LpFlowAdaptive)
    ->Arg(6)->Arg(10)->Arg(14)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
