// E6 (Theorem 2.3): preconditioned Chebyshev iteration count ~
// sqrt(kappa) * log(1/eps), against CG on the same pencils.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/cg.h"
#include "linalg/chebyshev.h"
#include "linalg/vector_ops.h"

namespace {

using namespace bcclap;
using linalg::Vec;

// Diagonal operator with spectrum [1/kappa, 1] (exactly the pencil B^{-1}A
// normalized by Theorem 2.3's assumption A <= B <= kappa A).
Vec make_spectrum(std::size_t n, double kappa, rng::Stream& stream) {
  Vec d(n);
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = 1.0 / kappa +
           (1.0 - 1.0 / kappa) * static_cast<double>(i) /
               static_cast<double>(n - 1);
  }
  for (std::size_t i = n; i > 1; --i)
    std::swap(d[i - 1], d[stream.next_below(i)]);
  return d;
}

// The diagonal operator x -> d .* x, column by column.
linalg::PanelOperator diag_op(const Vec& d) {
  return [&d](const linalg::DenseMatrix& x) {
    linalg::DenseMatrix y(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.rows(); ++i)
      for (std::size_t j = 0; j < x.cols(); ++j) y(i, j) = d[i] * x(i, j);
    return y;
  };
}

const linalg::PanelOperator identity = [](const linalg::DenseMatrix& x) {
  return x;
};

void BM_ChebyshevKappa(benchmark::State& state) {
  const double kappa = static_cast<double>(state.range(0));
  const std::size_t n = 400;
  rng::Stream stream(3);
  const Vec d = make_spectrum(n, kappa, stream);
  Vec b(n);
  for (auto& v : b) v = stream.next_gaussian();
  const auto op = diag_op(d);
  const auto b_panel = linalg::DenseMatrix::from_columns({b});
  double cheb_iters = 0, cg_iters = 0, cheb_err = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    const auto cheb = linalg::preconditioned_chebyshev_many(
        op, identity, b_panel, kappa, 1e-8);
    cheb_iters += static_cast<double>(cheb.iterations);
    Vec err(n);
    for (std::size_t i = 0; i < n; ++i) err[i] = cheb.x(i, 0) - b[i] / d[i];
    cheb_err += linalg::norm2(err) / linalg::norm2(b);
    const auto cg = linalg::conjugate_gradient_many(op, b_panel, 1e-8, 100000);
    cg_iters += static_cast<double>(cg.iterations[0]);
    ++runs;
  }
  const double r = static_cast<double>(runs);
  state.counters["kappa"] = kappa;
  state.counters["sqrt_kappa"] = std::sqrt(kappa);
  state.counters["cheb_iters"] = cheb_iters / r;
  state.counters["cg_iters"] = cg_iters / r;
  state.counters["cheb_rel_err"] = cheb_err / r;
}

BENCHMARK(BM_ChebyshevKappa)
    ->Arg(3)->Arg(9)->Arg(27)->Arg(81)->Arg(243)
    ->Unit(benchmark::kMicrosecond);

void BM_ChebyshevEps(benchmark::State& state) {
  const double eps = std::pow(10.0, -static_cast<double>(state.range(0)));
  const std::size_t n = 200;
  rng::Stream stream(7);
  const Vec d = make_spectrum(n, 3.0, stream);  // the Corollary 2.4 kappa
  Vec b(n);
  for (auto& v : b) v = stream.next_gaussian();
  const auto op = diag_op(d);
  const auto b_panel = linalg::DenseMatrix::from_columns({b});
  double iters = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    const auto res = linalg::preconditioned_chebyshev_many(op, identity,
                                                           b_panel, 3.0, eps);
    iters += static_cast<double>(res.iterations);
    ++runs;
  }
  state.counters["eps"] = eps;
  state.counters["iterations"] = iters / static_cast<double>(runs);
}

BENCHMARK(BM_ChebyshevEps)->DenseRange(2, 12, 2)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
