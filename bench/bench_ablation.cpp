// Ablations (DESIGN.md A1-A3):
//  A1: fixed bundle size (Kyng et al.) vs growing (Koutis-Xu style).
//  A2: sparsifier-preconditioned Chebyshev vs unpreconditioned CG on L_G.
//  A3: ad-hoc vs a-priori sampling — coupling match rate over seeds.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "laplacian/prepared.h"
#include "linalg/cg.h"
#include "sparsify/spectral_sparsify.h"
#include "sparsify/verifier.h"
#include "support/harness.h"

namespace {

using namespace bcclap;
using bench::bench_context;

void BM_AblationBundleGrowth(benchmark::State& state) {
  const bool growing = state.range(0) != 0;
  const std::size_t n = 48;
  rng::Stream gstream(2);
  const auto g = graph::complete(n, 3, gstream);
  double size = 0, eps = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    bcc::Network net(bcc::Model::kBroadcastCongest, g,
                     bcc::Network::default_bandwidth(n), bench_context());
    sparsify::SparsifyOptions opt;
    opt.epsilon = 0.5;
    opt.k = 2;
    opt.t = 1;
    opt.growing_t = growing;
    const auto res = sparsify::spectral_sparsify(
        net.context().with_seed(runs + 3), g, opt, net);
    size += static_cast<double>(res.sparsifier.num_edges());
    const auto check = sparsify::check_sparsifier(g, res.sparsifier);
    eps += check.valid ? check.achieved_epsilon() : 99.0;
    ++runs;
  }
  const double r = static_cast<double>(runs);
  state.counters["growing_t"] = growing ? 1 : 0;
  state.counters["size"] = size / r;
  state.counters["achieved_eps"] = eps / r;
}

BENCHMARK(BM_AblationBundleGrowth)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_AblationPreconditioning(benchmark::State& state) {
  // Wide weight spread: large condition number with a rich spectrum, the
  // regime where unpreconditioned Krylov methods pay sqrt(kappa).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  rng::Stream gstream(n * 5 + 1);
  const auto g = graph::random_connected_gnp(n, 0.3, 1 << 20, gstream);
  const auto lap = graph::laplacian(g);
  rng::Stream bstream(n);
  linalg::Vec b(g.num_vertices());
  for (auto& v : b) v = bstream.next_gaussian();
  linalg::remove_mean(b);

  sparsify::SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.k = 2;
  opt.t = 3;
  const auto solver =
      laplacian::prepare_sparsified_chebyshev(bench_context(11), g, opt);
  laplacian::EngineOptions eopt;
  eopt.eps = 1e-8;
  const auto b_panel = linalg::DenseMatrix::from_columns({b});

  double cheb_iters = 0, cg_iters = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    core::RunStats stats;
    benchmark::DoNotOptimize(solver->apply(bench_context(11), b, eopt, &stats));
    cheb_iters += static_cast<double>(stats.iterations);
    const auto ctx = bench_context();
    const auto cg = linalg::conjugate_gradient_many(
        [&lap, ctx](const linalg::DenseMatrix& x) {
          linalg::DenseMatrix y(x.rows(), x.cols());
          for (std::size_t j = 0; j < x.cols(); ++j)
            y.set_column(j, lap.multiply(ctx, x.column(j)));
          return y;
        },
        b_panel, 1e-8, 20000);
    cg_iters += static_cast<double>(cg.iterations[0]);
    ++runs;
  }
  const double r = static_cast<double>(runs);
  state.counters["n"] = static_cast<double>(n);
  state.counters["precond_cheb_iters"] = cheb_iters / r;
  state.counters["plain_cg_iters"] = cg_iters / r;
}

BENCHMARK(BM_AblationPreconditioning)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_AblationCouplingMatchRate(benchmark::State& state) {
  // Lemma 3.3: under shared coins the two algorithms must coincide on
  // every seed. Reported as a rate so a regression is visible as < 1.
  const std::size_t n = 16;
  rng::Stream gstream(4);
  const auto g = graph::complete(n, 3, gstream);
  double match = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    sparsify::SparsifyOptions opt;
    opt.epsilon = 1.0;
    opt.k = 2;
    opt.t = 2;
    bcc::Network net(bcc::Model::kBroadcastCongest, g,
                     bcc::Network::default_bandwidth(n), bench_context());
    const auto adhoc = sparsify::spectral_sparsify(
        net.context().with_seed(runs + 1), g, opt, net);
    const auto apriori = sparsify::spectral_sparsify_apriori(
        bench_context(runs + 1), g, opt);
    match += (adhoc.original_edge == apriori.original_edge) ? 1 : 0;
    ++runs;
  }
  state.counters["coupling_match_rate"] = match / static_cast<double>(runs);
}

BENCHMARK(BM_AblationCouplingMatchRate)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
