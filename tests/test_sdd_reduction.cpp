#include "laplacian/sdd_reduction.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/laplacian.h"
#include "linalg/cholesky.h"
#include "linalg/vector_ops.h"
#include "support/fixtures.h"

namespace bcclap::laplacian {
namespace {

using testsupport::test_context;

// Random SDD matrix with strictly positive slack and mixed-sign
// off-diagonals.
linalg::DenseMatrix random_sdd(std::size_t n, bool with_positive,
                               rng::Stream& stream) {
  linalg::DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (stream.next_double() < 0.5) continue;
      double v = -1.0 - 3.0 * stream.next_double();
      if (with_positive && stream.next_double() < 0.3) v = -v;
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) s += std::abs(m(i, j));
    m(i, i) = s + 0.5 + stream.next_double();  // strict dominance
  }
  return m;
}

// Single right-hand sides ride the panel lift and projection as k = 1
// panels.
linalg::Vec lift(const linalg::Vec& y) {
  return lift_rhs_many(linalg::DenseMatrix::from_columns({y})).column(0);
}

linalg::Vec project(const linalg::Vec& x12) {
  return project_solution_many(linalg::DenseMatrix::from_columns({x12}))
      .column(0);
}

TEST(SddReduction, VirtualGraphIsLaplacianOfM) {
  rng::Stream stream(1);
  const auto m = random_sdd(6, false, stream);
  const auto red = gremban_reduce(m);
  ASSERT_TRUE(red.valid);
  EXPECT_EQ(red.virtual_graph.num_vertices(), 12u);
  // L [x; -x] = [M x; -M x] for any x.
  const auto x = testsupport::gaussian_vector(6, stream);
  const auto lifted =
      graph::apply_laplacian(test_context(), red.virtual_graph, lift(x));
  const auto mx = m.multiply(test_context(), x);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(lifted[i], mx[i], 1e-9);
    EXPECT_NEAR(lifted[i + 6], -mx[i], 1e-9);
  }
}

TEST(SddReduction, SolveRoundTripNegativeOffdiag) {
  rng::Stream stream(2);
  for (std::uint64_t trial = 0; trial < 5; ++trial) {
    auto child = stream.child(trial);
    const auto m = random_sdd(8, false, child);
    const auto red = gremban_reduce(m);
    ASSERT_TRUE(red.valid);
    const auto factor = linalg::ComponentLaplacianFactor::factor(
        test_context(), graph::laplacian(red.virtual_graph));
    ASSERT_TRUE(factor);
    const auto y = testsupport::gaussian_vector(8, child);
    const auto x = project(testsupport::solve_one(*factor, lift(y)));
    const auto r = linalg::sub(m.multiply(test_context(), x), y);
    EXPECT_LT(linalg::norm2(r), 1e-7 * (linalg::norm2(y) + 1.0));
  }
}

TEST(SddReduction, SolveRoundTripMixedSigns) {
  // Positive off-diagonals exercise the cross-copy edges.
  rng::Stream stream(3);
  const auto m = random_sdd(10, true, stream);
  const auto red = gremban_reduce(m);
  ASSERT_TRUE(red.valid);
  const auto factor = linalg::ComponentLaplacianFactor::factor(
      test_context(), graph::laplacian(red.virtual_graph));
  ASSERT_TRUE(factor);
  const auto y = testsupport::gaussian_vector(10, stream);
  const auto x = project(testsupport::solve_one(*factor, lift(y)));
  const auto r = linalg::sub(m.multiply(test_context(), x), y);
  EXPECT_LT(linalg::norm2(r), 1e-7 * (linalg::norm2(y) + 1.0));
}

TEST(SddReduction, RejectsNonSdd) {
  linalg::DenseMatrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = -5.0;
  m(1, 0) = -5.0;
  m(1, 1) = 1.0;
  EXPECT_FALSE(gremban_reduce(m).valid);
}

TEST(SddReduction, LiftProjectInverse) {
  const linalg::Vec y{1, -2, 3};
  const auto lifted = lift(y);
  EXPECT_EQ(lifted.size(), 6u);
  EXPECT_EQ(project(lifted), y);
  // Panels lift and project column by column.
  const auto panel = linalg::DenseMatrix::from_columns({y, {0.5, 0, -4}});
  const auto lifted_panel = lift_rhs_many(panel);
  EXPECT_EQ(lifted_panel.rows(), 6u);
  EXPECT_EQ(lifted_panel.column(0), lifted);
  EXPECT_EQ(project_solution_many(lifted_panel).column(1), panel.column(1));
}

}  // namespace
}  // namespace bcclap::laplacian
