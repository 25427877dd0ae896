// E8 (Lemma 4.6): Lewis-weight approximation — convergence of Algorithm 7
// vs iteration count, homotopy (Algorithm 8) landing error vs step scale.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "lp/lewis_weights.h"
#include "support/harness.h"

namespace {

using namespace bcclap;
using bench::bench_context;

linalg::DenseMatrix random_tall(std::size_t m, std::size_t n,
                                std::uint64_t seed) {
  rng::Stream stream(seed);
  linalg::DenseMatrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = stream.next_gaussian();
  return a;
}

void BM_LewisFixedPointConvergence(benchmark::State& state) {
  const std::size_t iters = static_cast<std::size_t>(state.range(0));
  const auto a = random_tall(60, 8, 3);
  const double p = lp::lewis_p_for(60);
  double err = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    const auto w = lp::lewis_fixed_point(bench_context(), a, p, iters);
    err += lp::lewis_relative_error(bench_context(), a, p, w);
    ++runs;
  }
  state.counters["iterations"] = static_cast<double>(iters);
  state.counters["rel_err"] = err / static_cast<double>(runs);
}

BENCHMARK(BM_LewisFixedPointConvergence)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_LewisApxWarmStart(benchmark::State& state) {
  // Algorithm 7 from a multiplicatively perturbed warm start.
  const double perturb = static_cast<double>(state.range(0)) / 100.0;
  const auto a = random_tall(50, 6, 5);
  const double p = lp::lewis_p_for(50);
  const auto truth = lp::lewis_fixed_point(bench_context(), a, p, 200);
  double err = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    rng::Stream noise(runs + 11);
    linalg::Vec warm = truth;
    for (auto& v : warm) v *= (1.0 + perturb * noise.next_gaussian());
    lp::LewisOptions opt;
    opt.max_iterations = 24;
    const auto w =
        lp::compute_apx_weights(bench_context(), a, p, warm, 0.05, opt);
    double e = 0;
    for (std::size_t i = 0; i < truth.size(); ++i)
      e = std::max(e, std::abs(w[i] - truth[i]) / std::max(truth[i], 1e-12));
    err += e;
    ++runs;
  }
  state.counters["perturbation"] = perturb;
  state.counters["rel_err"] = err / static_cast<double>(runs);
}

BENCHMARK(BM_LewisApxWarmStart)
    ->Arg(2)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_LewisHomotopy(benchmark::State& state) {
  // Algorithm 8 landing error for different p sweeps (p in [1, 2]).
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const auto a = random_tall(rows, 5, rows);
  const double p = lp::lewis_p_for(rows);
  double err = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    lp::LewisOptions opt;
    const auto w =
        lp::compute_initial_weights(bench_context(), a, p, 0.05, opt);
    err += lp::lewis_relative_error(bench_context(), a, p, w);
    ++runs;
  }
  state.counters["m"] = static_cast<double>(rows);
  state.counters["rel_err"] = err / static_cast<double>(runs);
}

BENCHMARK(BM_LewisHomotopy)
    ->Arg(24)->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
