// The paper pipeline's solve (Corollary 2.4 / Theorem 1.3) through its
// prepared artifact, plus the exact reference oracle it is measured
// against.
#include "laplacian/solver.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "graph/generators.h"
#include "graph/laplacian.h"
#include "laplacian/prepared.h"
#include "linalg/cholesky.h"
#include "linalg/vector_ops.h"
#include "support/comparators.h"
#include "support/fixtures.h"

namespace bcclap::laplacian {
namespace {

using testsupport::test_context;

sparsify::SparsifyOptions solver_opts() {
  return testsupport::small_sparsify_options(0.5, 2, 4);
}

// The sparsified-chebyshev artifact for g, prepared under `seed`.
std::shared_ptr<const PreparedLaplacian> prepare(
    std::uint64_t seed, const graph::Graph& g,
    const sparsify::SparsifyOptions& opt = solver_opts()) {
  return prepare_sparsified_chebyshev(test_context(seed), g, opt);
}

linalg::Vec solve(const PreparedLaplacian& p, const linalg::Vec& b,
                  double eps, core::RunStats* stats = nullptr) {
  EngineOptions opt;
  opt.eps = eps;
  return p.apply(test_context(), b, opt, stats);
}

class LaplacianSolverEps : public ::testing::TestWithParam<double> {};

TEST_P(LaplacianSolverEps, MeetsEnergyNormError) {
  const double eps = GetParam();
  rng::Stream gstream(17);
  const auto g = graph::complete(28, 5, gstream);
  const auto solver = prepare(1234, g);

  rng::Stream bstream(18);
  const auto b = testsupport::zero_sum_gaussian(g.num_vertices(), bstream);

  core::RunStats stats;
  const auto y = solve(*solver, b, eps, &stats);
  const auto x = exact_laplacian_solve(test_context(), g, b);
  EXPECT_TRUE(testsupport::EnergyNormWithin(g, y, x, eps)) << "eps = " << eps;
  EXPECT_GT(stats.iterations, 0u);
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, LaplacianSolverEps,
                         ::testing::Values(0.5, 1e-2, 1e-4, 1e-6, 1e-8,
                                           1e-10));

TEST(LaplacianSolver, IterationCountIsLogOneOverEps) {
  // Corollary 2.4: O(log(1/eps)) iterations with kappa = 3.
  rng::Stream gstream(19);
  const auto g = graph::complete(24, 3, gstream);
  const auto solver = prepare(55, g);
  linalg::Vec b(g.num_vertices(), 0.0);
  b[0] = 1.0;
  b[5] = -1.0;
  core::RunStats s1, s2;
  solve(*solver, b, 1e-2, &s1);
  solve(*solver, b, 1e-8, &s2);
  // 4x more digits should cost ~4x iterations (linear in log(1/eps)).
  const double ratio =
      static_cast<double>(s2.iterations) / static_cast<double>(s1.iterations);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 8.0);
}

TEST(LaplacianSolver, PreprocessingVsInstanceRounds) {
  // Theorem 1.3's split: preprocessing dominates a single solve.
  rng::Stream gstream(23);
  const auto g = graph::complete(24, 3, gstream);
  const auto solver = prepare(77, g);
  EXPECT_GT(solver->preprocessing_rounds(), 0);
  linalg::Vec b(g.num_vertices(), 0.0);
  b[1] = 1.0;
  b[2] = -1.0;
  core::RunStats stats;
  solve(*solver, b, 1e-6, &stats);
  EXPECT_GT(stats.rounds, 0);
  EXPECT_LT(stats.rounds, solver->preprocessing_rounds());
}

TEST(LaplacianSolver, SparsifierIsSparserOnDenseInput) {
  rng::Stream gstream(29);
  const auto g = graph::complete(64, 2, gstream);
  auto opt = solver_opts();
  opt.t = 1;  // single-spanner bundles so K64 actually compresses
  const auto solver = prepare(91, g, opt);
  EXPECT_LT(solver->sparsifier()->num_edges(), g.num_edges());
}

TEST(LaplacianSolver, WorksOnSparseGraphs) {
  rng::Stream gstream(31);
  const auto g = graph::random_connected_gnp(30, 0.15, 4, gstream);
  const auto solver = prepare(101, g);
  rng::Stream bstream(32);
  const auto b = testsupport::zero_sum_gaussian(g.num_vertices(), bstream);
  const auto y = solve(*solver, b, 1e-8);
  const auto x = exact_laplacian_solve(test_context(), g, b);
  EXPECT_TRUE(testsupport::EnergyNormWithin(g, y, x, 1e-8));
}

TEST(LaplacianSolver, NonZeroMeanRhsIsProjected) {
  rng::Stream gstream(37);
  const auto g = graph::complete(16, 1, gstream);
  const auto solver = prepare(111, g);
  linalg::Vec b(16, 1.0);  // pure kernel component
  b[0] = 2.0;
  const auto y = solve(*solver, b, 1e-8);
  linalg::Vec proj = b;
  linalg::remove_mean(proj);
  const auto x = exact_laplacian_solve(test_context(), g, proj);
  EXPECT_LE(laplacian_norm(test_context(), g, linalg::sub(x, y)),
            1e-7 * (laplacian_norm(test_context(), g, x) + 1.0));
}

TEST(ExactLaplacianSolve, OneAndTwoVertexGraphs) {
  // A 1-node graph is a valid input (L = 0, x = 0), not a failed
  // factorization: its one component is a singleton and factors nothing.
  const graph::Graph one(1);
  const auto f1 =
      linalg::ComponentLaplacianFactor::factor(test_context(),
                                               graph::laplacian(one));
  ASSERT_TRUE(f1);
  EXPECT_EQ(f1->dense_factor_count(), 0u);
  EXPECT_EQ(f1->sparse_factor_count(), 0u);
  const auto x1 = exact_laplacian_solve(test_context(), one, linalg::Vec{3.0});
  ASSERT_EQ(x1.size(), 1u);
  EXPECT_EQ(x1[0], 0.0);
  EXPECT_EQ(f1->solve_many(test_context(), linalg::DenseMatrix(1, 2)).cols(),
            2u);

  graph::Graph g2(2);
  g2.add_edge(0, 1, 4.0);
  const auto f2 = linalg::ComponentLaplacianFactor::factor(
      test_context(), graph::laplacian(g2));
  ASSERT_TRUE(f2);
  EXPECT_EQ(f2->dense_factor_count(), 1u);  // kAuto: tiny systems stay dense
  EXPECT_EQ(f2->sparse_factor_count(), 0u);
  const auto x2 =
      exact_laplacian_solve(test_context(), g2, linalg::Vec{1.0, -1.0});
  EXPECT_NEAR(x2[0] - x2[1], 0.25, 1e-12);
}

TEST(ExactLaplacianSolve, ThrowsWhenTheLaplacianDoesNotFactor) {
  // A negative edge weight makes L_G indefinite, so the grounded factor
  // fails. The oracle must say so in every build type rather than solve
  // through a missing factor.
  graph::Graph g(3);
  g.add_edge(0, 1, -1.0);
  g.add_edge(1, 2, 1.0);
  EXPECT_THROW(exact_laplacian_solve(test_context(), g,
                                     linalg::Vec{1.0, 0.0, -1.0}),
               std::runtime_error);
}

TEST(ExactLaplacianSolve, RejectsWrongSizedRhs) {
  EXPECT_THROW(exact_laplacian_solve(test_context(), graph::path(4),
                                     linalg::Vec{1.0, -1.0}),
               std::invalid_argument);
}

TEST(ExactLaplacianSolve, SolvesDisconnectedGraphsPerComponent) {
  // Components {0}, {1, 2, 3} (a path) and {4, 5}: the oracle returns the
  // per-component mean-zero x with L x equal to the per-component
  // projection of b.
  graph::Graph g(6);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 2.0);
  g.add_edge(4, 5, 3.0);
  rng::Stream bstream(47);
  const auto b = testsupport::gaussian_vector(6, bstream);
  const auto x = exact_laplacian_solve(test_context(), g, b);
  ASSERT_EQ(x.size(), 6u);

  linalg::Vec proj = b;
  proj[0] = 0.0;  // isolated vertex: L's row is zero
  const double m123 = (b[1] + b[2] + b[3]) / 3.0;
  for (std::size_t v = 1; v <= 3; ++v) proj[v] -= m123;
  const double m45 = (b[4] + b[5]) / 2.0;
  proj[4] -= m45;
  proj[5] -= m45;
  const auto lx = graph::apply_laplacian(test_context(), g, x);
  for (std::size_t v = 0; v < 6; ++v) EXPECT_NEAR(lx[v], proj[v], 1e-12) << v;

  EXPECT_EQ(x[0], 0.0);
  EXPECT_NEAR(x[1] + x[2] + x[3], 0.0, 1e-12);
  EXPECT_NEAR(x[4] + x[5], 0.0, 1e-12);
}

TEST(LaplacianSolver, OneAndTwoVertexGraphs) {
  // The sparsifier-preconditioned path through the same degenerate sizes.
  const graph::Graph one(1);
  const auto s1 = prepare(7, one);
  ASSERT_TRUE(s1->usable());
  const auto x1 = solve(*s1, linalg::Vec{5.0}, 1e-8);
  ASSERT_EQ(x1.size(), 1u);
  EXPECT_EQ(x1[0], 0.0);

  graph::Graph two(2);
  two.add_edge(0, 1, 2.0);
  const auto s2 = prepare(8, two);
  ASSERT_TRUE(s2->usable());
  const auto x2 = solve(*s2, linalg::Vec{1.0, -1.0}, 1e-10);
  EXPECT_NEAR(x2[0] - x2[1], 0.5, 1e-8);
}

TEST(LaplacianSolver, RejectsWrongSizedRhs) {
  rng::Stream gstream(43);
  const auto g = graph::complete(12, 2, gstream);
  const auto solver = prepare(9, g);
  ASSERT_TRUE(solver->usable());
  EXPECT_THROW(solve(*solver, linalg::Vec(5, 0.0), 1e-6),
               std::invalid_argument);
  EXPECT_THROW(solver->apply_many(test_context(), linalg::DenseMatrix(5, 2),
                                  EngineOptions{}, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace bcclap::laplacian
