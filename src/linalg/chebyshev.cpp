#include "linalg/chebyshev.h"

#include <algorithm>
#include <cmath>

namespace bcclap::linalg {

// Standard preconditioned Chebyshev semi-iteration on the pencil B^{-1}A,
// whose spectrum lies in [1/kappa, 1] when A <= B <= kappa A, with every
// vector op widened to an n x k panel. Each elementwise update touches a
// (row, column) slot with the same multiply-add whatever k is, so column j
// of a k-column panel matches the one-column panel of b's column j bit
// for bit.
ChebyshevPanelResult preconditioned_chebyshev_many_fixed(
    const PanelOperator& apply_a, const PanelOperator& solve_b,
    const DenseMatrix& b, double kappa, std::size_t iterations) {
  ChebyshevPanelResult out;
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  out.x = DenseMatrix(n, k);
  if (k == 0) return out;
  const double lmin = 1.0 / kappa;
  const double lmax = 1.0;
  const double theta = 0.5 * (lmax + lmin);
  const double delta = 0.5 * (lmax - lmin);

  const std::size_t len = n * k;  // the updates below are elementwise
  DenseMatrix r = b;               // R = B - A X, X = 0
  DenseMatrix p;
  double alpha = 0.0;
  for (std::size_t it = 0; it < iterations; ++it) {
    DenseMatrix z = solve_b(r);
    ++out.b_solves;
    if (it == 0) {
      p = std::move(z);
      alpha = 1.0 / theta;
    } else {
      double beta;
      if (it == 1) {
        beta = 0.5 * (delta * alpha) * (delta * alpha);
      } else {
        beta = (delta * alpha / 2.0) * (delta * alpha / 2.0);
      }
      alpha = 1.0 / (theta - beta / alpha);
      double* pd = p.data();
      const double* zd = z.data();
      for (std::size_t i = 0; i < len; ++i) pd[i] = zd[i] + beta * pd[i];
    }
    double* xd = out.x.data();
    const double* pd = p.data();
    for (std::size_t i = 0; i < len; ++i) xd[i] += alpha * pd[i];
    const DenseMatrix ap = apply_a(p);
    ++out.a_multiplies;
    double* rd = r.data();
    const double* apd = ap.data();
    for (std::size_t i = 0; i < len; ++i) rd[i] -= alpha * apd[i];
    ++out.iterations;
  }
  return out;
}

ChebyshevPanelResult preconditioned_chebyshev_many(
    const PanelOperator& apply_a, const PanelOperator& solve_b,
    const DenseMatrix& b, double kappa, double eps) {
  const double safe_eps = std::max(eps, 1e-16);
  const auto iters = static_cast<std::size_t>(
      std::ceil(std::sqrt(kappa) * std::log(2.0 / safe_eps))) + 1;
  return preconditioned_chebyshev_many_fixed(apply_a, solve_b, b, kappa,
                                             iters);
}

}  // namespace bcclap::linalg
