#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "linalg/cg.h"
#include "linalg/chebyshev.h"
#include "linalg/cholesky.h"
#include "linalg/vector_ops.h"
#include "support/fixtures.h"

namespace bcclap::linalg {
namespace {

using testsupport::test_context;

// A single right-hand side is a k = 1 panel.
DenseMatrix panel(const Vec& v) { return DenseMatrix::from_columns({v}); }

// Diagonal SPD operator with controllable condition number (column-wise).
PanelOperator diag_op(const Vec& d) {
  return [d](const DenseMatrix& x) {
    DenseMatrix y = x;
    for (std::size_t i = 0; i < x.rows(); ++i)
      for (std::size_t j = 0; j < x.cols(); ++j) y(i, j) *= d[i];
    return y;
  };
}

const PanelOperator identity = [](const DenseMatrix& x) { return x; };

TEST(Cg, SolvesDiagonalSystem) {
  const Vec d{1, 2, 3, 4};
  const Vec b{1, 1, 1, 1};
  const auto res = conjugate_gradient_many(diag_op(d), panel(b), 1e-10, 100);
  EXPECT_TRUE(res.converged[0]);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(res.x(i, 0), 1.0 / d[i], 1e-8);
}

TEST(Cg, ExactInNIterations) {
  const Vec d{1, 10, 100};
  const auto res =
      conjugate_gradient_many(diag_op(d), panel(Vec{1, 1, 1}), 1e-12, 10);
  EXPECT_TRUE(res.converged[0]);
  EXPECT_LE(res.iterations[0], 3u);  // CG is exact after n steps
}

TEST(Cg, PreconditionedConvergesFaster) {
  rng::Stream stream(5);
  const std::size_t n = 50;
  Vec d(n);
  for (std::size_t i = 0; i < n; ++i)
    d[i] = 1.0 + 999.0 * static_cast<double>(i) / static_cast<double>(n - 1);
  const auto b = panel(testsupport::gaussian_vector(n, stream));
  const auto plain = conjugate_gradient_many(diag_op(d), b, 1e-10, 1000);
  const PanelOperator precond = diag_op(cw_inv(d));  // perfect preconditioner
  const auto pre =
      conjugate_gradient_many(diag_op(d), b, 1e-10, 1000, &precond);
  EXPECT_TRUE(pre.converged[0]);
  EXPECT_LT(pre.iterations[0], plain.iterations[0]);
  EXPECT_LE(pre.iterations[0], 3u);
}

TEST(Chebyshev, ExactPreconditionerConvergesImmediately) {
  const Vec d{2, 3, 5};
  const Vec b{1, 2, 3};
  // B = A: kappa = 1.
  const auto res = preconditioned_chebyshev_many(
      diag_op(d), diag_op(cw_inv(d)), panel(b), 1.0, 1e-12);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(res.x(i, 0), b[i] / d[i], 1e-9);
}

TEST(Chebyshev, Kappa3LaplacianPair) {
  // A = L_G, B = (3/2) L_H with H = G: A <= B <= 3A trivially holds.
  rng::Stream stream(9);
  const auto g = graph::random_connected_gnp(24, 0.3, 5, stream);
  const auto lap = graph::laplacian(g);
  const auto factor = ComponentLaplacianFactor::factor(test_context(), lap);
  ASSERT_TRUE(factor);
  const auto b = testsupport::zero_sum_gaussian(24, stream);
  const PanelOperator apply_a = [&](const DenseMatrix& x) {
    return graph::apply_laplacian_many(test_context(), g, x);
  };
  const PanelOperator solve_b = [&](const DenseMatrix& r) {
    DenseMatrix z = factor->solve_many(test_context(), r);
    for (std::size_t i = 0; i < z.rows(); ++i)
      for (std::size_t j = 0; j < z.cols(); ++j) z(i, j) *= 2.0 / 3.0;
    return z;
  };
  const auto res =
      preconditioned_chebyshev_many(apply_a, solve_b, panel(b), 3.0, 1e-10);
  const Vec exact = factor->solve_many(test_context(), panel(b)).column(0);
  Vec diff = sub(res.x.column(0), exact);
  remove_mean(diff);
  const double err = std::sqrt(
      std::max(0.0, dot(diff, lap.multiply(test_context(), diff))));
  const double ref = std::sqrt(
      std::max(0.0, dot(exact, lap.multiply(test_context(), exact))));
  EXPECT_LT(err, 1e-8 * ref);
}

TEST(Chebyshev, IterationCountScalesWithSqrtKappa) {
  // Theorem 2.3's O(sqrt(kappa) log(1/eps)) shape: the builtin schedule.
  const auto b = panel(Vec{1.0});
  const auto r1 =
      preconditioned_chebyshev_many(identity, identity, b, 4.0, 1e-6);
  const auto r2 =
      preconditioned_chebyshev_many(identity, identity, b, 64.0, 1e-6);
  const double ratio = static_cast<double>(r2.iterations) /
                       static_cast<double>(r1.iterations);
  EXPECT_NEAR(ratio, 4.0, 1.0);  // sqrt(64/4) = 4
}

TEST(Chebyshev, ErrorDecreasesWithIterations) {
  Vec d{1.0, 0.5, 0.34};  // spectrum within [1/3, 1]
  const Vec b{1, 1, 1};
  double prev = 1e9;
  for (std::size_t iters : {2u, 6u, 12u, 24u}) {
    const auto res = preconditioned_chebyshev_many_fixed(
        diag_op(d), identity, panel(b), 3.0, iters);
    Vec err(3);
    for (std::size_t i = 0; i < 3; ++i) err[i] = res.x(i, 0) - b[i] / d[i];
    const double e = norm2(err);
    EXPECT_LT(e, prev + 1e-12);
    prev = e;
  }
  EXPECT_LT(prev, 1e-6);
}

TEST(Chebyshev, CountsPrimitiveOperations) {
  const auto res = preconditioned_chebyshev_many_fixed(
      identity, identity, panel(Vec{1.0, 2.0}), 2.0, 7);
  EXPECT_EQ(res.iterations, 7u);
  EXPECT_EQ(res.a_multiplies, 7u);
  EXPECT_EQ(res.b_solves, 7u);
}

}  // namespace
}  // namespace bcclap::linalg
