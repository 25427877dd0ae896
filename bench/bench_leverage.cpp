// E7 (Lemma 4.5 / Theorem 4.4): JL leverage scores — accuracy vs sketch
// dimension k = Theta(log m / eta^2), seed-broadcast round cost.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "linalg/jl_transform.h"
#include "lp/leverage_scores.h"
#include "support/harness.h"

namespace {

using namespace bcclap;
using bench::bench_context;

linalg::DenseMatrix incidence_grounded(const graph::Graph& g) {
  const auto b = graph::incidence(g).to_dense();
  linalg::DenseMatrix out(b.rows(), b.cols() - 1);
  for (std::size_t r = 0; r < b.rows(); ++r)
    for (std::size_t c = 0; c + 1 < b.cols(); ++c) out(r, c) = b(r, c);
  return out;
}

void BM_LeverageAccuracy(benchmark::State& state) {
  const double eta = static_cast<double>(state.range(0)) / 100.0;
  rng::Stream gstream(11);
  const auto g = graph::random_connected_gnp(40, 0.2, 5, gstream);
  const auto m = incidence_grounded(g);
  const auto exact = lp::leverage_scores_exact(bench_context(), m);

  double worst = 0, median_err = 0, rounds = 0, kdim = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    bcc::RoundAccountant acct;
    lp::LeverageOptions opt;
    opt.eta = eta;
    opt.seed = runs * 131 + 7;
    const auto ctx = bench_context();
    const auto approx =
        lp::leverage_scores_jl(ctx, lp::dense_oracle(ctx, m), opt, &acct);
    std::vector<double> errs(exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      errs[i] = std::abs(approx[i] - exact[i]) / std::max(exact[i], 1e-12);
    }
    std::sort(errs.begin(), errs.end());
    worst += errs.back();
    median_err += errs[errs.size() / 2];
    rounds += static_cast<double>(acct.total());
    kdim = static_cast<double>(linalg::jl_dimension(m.rows(), eta,
                                                    opt.jl_constant));
    ++runs;
  }
  const double r = static_cast<double>(runs);
  state.counters["eta"] = eta;
  state.counters["sketch_k"] = kdim;
  state.counters["median_rel_err"] = median_err / r;
  state.counters["worst_rel_err"] = worst / r;
  state.counters["rounds"] = rounds / r;
}

BENCHMARK(BM_LeverageAccuracy)
    ->Arg(100)->Arg(50)->Arg(25)->Arg(12)
    ->Unit(benchmark::kMillisecond);

// Scaling with matrix height m (random Gaussian matrices).
void BM_LeverageHeight(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  rng::Stream stream(rows);
  linalg::DenseMatrix a(rows, 8);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < 8; ++j) a(i, j) = stream.next_gaussian();
  const auto exact = lp::leverage_scores_exact(bench_context(), a);
  double worst = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    lp::LeverageOptions opt;
    opt.eta = 0.5;
    opt.seed = runs * 17 + 3;
    const auto ctx = bench_context();
    const auto approx = lp::leverage_scores_jl(ctx, lp::dense_oracle(ctx, a),
                                               opt);
    double w = 0;
    for (std::size_t i = 0; i < exact.size(); ++i)
      w = std::max(w, std::abs(approx[i] - exact[i]) /
                          std::max(exact[i], 1e-12));
    worst += w;
    ++runs;
  }
  state.counters["m"] = static_cast<double>(rows);
  state.counters["worst_rel_err"] = worst / static_cast<double>(runs);
}

BENCHMARK(BM_LeverageHeight)
    ->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
