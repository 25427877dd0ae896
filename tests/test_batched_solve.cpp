// Batched multi-RHS solve stack (PR 5): solve_many on a panel must be
// byte-identical to k sequential solve() calls — per layer (LDLT factor,
// component Laplacian factor, sparsified solver, both SDD engines, the
// Runtime facade) and at 1 and 4 worker threads alike. Degenerate panels
// (k = 0, k = 1, a zero column) are covered, as are the batched iterative
// drivers and the panel Laplacian application they are built on.
#include <gtest/gtest.h>

#include <cstring>

#include "core/runtime.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "laplacian/bcc_solver.h"
#include "laplacian/engine.h"
#include "laplacian/solver.h"
#include "linalg/cg.h"
#include "linalg/chebyshev.h"
#include "linalg/cholesky.h"
#include "lp/lp_solver.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

using linalg::DenseMatrix;
using linalg::Vec;

// Bitwise comparison — tolerance would hide exactly the divergence the
// batched stack promises not to have.
::testing::AssertionResult BitwiseEqual(const Vec& a, const Vec& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "entry " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult PanelMatchesColumns(const DenseMatrix& panel,
                                               const std::vector<Vec>& cols) {
  if (panel.cols() != cols.size())
    return ::testing::AssertionFailure()
           << "panel has " << panel.cols() << " columns, expected "
           << cols.size();
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const auto res = BitwiseEqual(panel.column(j), cols[j]);
    if (!res) {
      return ::testing::AssertionFailure()
             << res.message() << " (column " << j << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// Gaussian panel with column `zero_col` (if in range) zeroed — the
// degenerate-column case rides along in every suite.
DenseMatrix gaussian_panel(std::size_t n, std::size_t k, std::uint64_t seed,
                           std::size_t zero_col = static_cast<std::size_t>(-1)) {
  rng::Stream stream(seed);
  DenseMatrix b(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    if (j == zero_col) continue;
    for (std::size_t i = 0; i < n; ++i) b(i, j) = stream.next_gaussian();
  }
  return b;
}

Runtime& runtime_for(std::size_t threads) {
  static Runtime rt1([] {
    RuntimeOptions o;
    o.threads = 1;
    o.seed = 505;
    return o;
  }());
  static Runtime rt4([] {
    RuntimeOptions o;
    o.threads = 4;
    o.seed = 505;
    return o;
  }());
  return threads == 1 ? rt1 : rt4;
}

TEST(BatchedSolve, LdltPanelMatchesSequentialSolves) {
  rng::Stream mstream(3);
  const auto a = testsupport::random_spd(96, mstream);
  const auto b = gaussian_panel(96, 32, 17, /*zero_col=*/5);
  std::vector<DenseMatrix> per_thread;
  for (const std::size_t threads : {1u, 4u}) {
    const auto ctx = runtime_for(threads).context();
    const auto f = linalg::LdltFactor::factor(ctx, a);
    ASSERT_TRUE(f);
    const DenseMatrix x = f->solve_many(ctx, b);
    std::vector<Vec> seq;
    for (std::size_t j = 0; j < b.cols(); ++j)
      seq.push_back(f->solve(b.column(j)));
    EXPECT_TRUE(PanelMatchesColumns(x, seq)) << threads << " threads";
    per_thread.push_back(x);
  }
  for (std::size_t j = 0; j < b.cols(); ++j) {
    EXPECT_TRUE(
        BitwiseEqual(per_thread[0].column(j), per_thread[1].column(j)));
  }
}

TEST(BatchedSolve, LdltDegeneratePanels) {
  rng::Stream mstream(5);
  const auto a = testsupport::random_spd(24, mstream);
  const auto ctx = testsupport::test_context();
  const auto f = linalg::LdltFactor::factor(ctx, a);
  ASSERT_TRUE(f);
  // k = 0: empty result, no dispatch, no crash.
  const DenseMatrix empty = f->solve_many(ctx, DenseMatrix(24, 0));
  EXPECT_EQ(empty.rows(), 24u);
  EXPECT_EQ(empty.cols(), 0u);
  // k = 1 equals the single solve bit for bit.
  const auto b1 = gaussian_panel(24, 1, 7);
  EXPECT_TRUE(BitwiseEqual(f->solve_many(ctx, b1).column(0),
                           f->solve(b1.column(0))));
}

TEST(BatchedSolve, ComponentFactorPanelMatchesSequentialSolves) {
  // Disconnected input: a singleton, a pair, and two larger components —
  // the Gremban-reduction workload shape.
  graph::Graph g(40);
  g.add_edge(1, 2, 2.0);
  rng::Stream gstream(11);
  const auto part_a = graph::random_connected_gnp(17, 0.3, 5, gstream);
  for (const auto& e : part_a.edges()) g.add_edge(3 + e.u, 3 + e.v, e.weight);
  const auto part_b = graph::random_connected_gnp(20, 0.2, 3, gstream);
  for (const auto& e : part_b.edges())
    g.add_edge(20 + e.u, 20 + e.v, e.weight);
  const auto lap = graph::laplacian(g);
  const auto b = gaussian_panel(40, 8, 23, /*zero_col=*/2);
  std::vector<DenseMatrix> per_thread;
  for (const std::size_t threads : {1u, 4u}) {
    const auto ctx = runtime_for(threads).context();
    const auto f = linalg::ComponentLaplacianFactor::factor(ctx, lap);
    ASSERT_TRUE(f);
    const DenseMatrix x = f->solve_many(ctx, b);
    std::vector<Vec> seq;
    for (std::size_t j = 0; j < b.cols(); ++j)
      seq.push_back(f->solve(ctx, b.column(j)));
    EXPECT_TRUE(PanelMatchesColumns(x, seq)) << threads << " threads";
    EXPECT_EQ(f->solve_many(ctx, DenseMatrix(40, 0)).cols(), 0u);
    per_thread.push_back(x);
  }
  for (std::size_t j = 0; j < b.cols(); ++j) {
    EXPECT_TRUE(
        BitwiseEqual(per_thread[0].column(j), per_thread[1].column(j)));
  }
}

TEST(BatchedSolve, ApplyLaplacianManyMatchesPerColumnApply) {
  rng::Stream gstream(31);
  // Large enough that the chunked-reduction path runs, not just the
  // sequential sweep.
  const auto g = graph::complete(96, 4, gstream);
  const auto x = gaussian_panel(96, 6, 41, /*zero_col=*/1);
  for (const std::size_t threads : {1u, 4u}) {
    const auto ctx = runtime_for(threads).context();
    const DenseMatrix y = graph::apply_laplacian_many(ctx, g, x);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_TRUE(BitwiseEqual(
          y.column(j), graph::apply_laplacian(ctx, g, x.column(j))))
          << "column " << j << ", " << threads << " threads";
    }
  }
  EXPECT_EQ(graph::apply_laplacian_many(testsupport::test_context(), g,
                                        DenseMatrix(96, 0))
                .cols(),
            0u);
}

TEST(BatchedSolve, SparsifiedSolverPanelMatchesSequentialSolves) {
  rng::Stream gstream(7);
  const auto g = graph::random_regularish(48, 6, 4, gstream);
  const auto opt = testsupport::small_sparsify_options(0.5, 2, 3);
  const auto b = gaussian_panel(48, 32, 29, /*zero_col=*/3);
  std::vector<DenseMatrix> per_thread;
  for (const std::size_t threads : {1u, 4u}) {
    const auto ctx = runtime_for(threads).context().with_seed(99);
    laplacian::SparsifiedLaplacianSolver batched(ctx, g, opt);
    laplacian::SparsifiedLaplacianSolver sequential(ctx, g, opt);
    ASSERT_TRUE(batched.usable());
    laplacian::SolveStats many_stats;
    const DenseMatrix x = batched.solve_many(b, 1e-8, &many_stats);
    std::vector<Vec> seq;
    std::int64_t seq_rounds = 0;
    for (std::size_t j = 0; j < b.cols(); ++j) {
      laplacian::SolveStats st;
      seq.push_back(sequential.solve(b.column(j), 1e-8, &st));
      seq_rounds += st.rounds;
    }
    EXPECT_TRUE(PanelMatchesColumns(x, seq)) << threads << " threads";
    // The panel charges exactly what 32 sequential solves charge (the
    // model counts communication per right-hand side) and reports itself
    // as one panel.
    EXPECT_EQ(many_stats.rounds, seq_rounds);
    EXPECT_EQ(many_stats.panels, 1u);
    EXPECT_EQ(batched.accountant().total(), sequential.accountant().total());
    per_thread.push_back(x);
  }
  for (std::size_t j = 0; j < b.cols(); ++j) {
    EXPECT_TRUE(
        BitwiseEqual(per_thread[0].column(j), per_thread[1].column(j)));
  }
}

// Diagonally dominant SDD test matrix with off-diagonal structure.
DenseMatrix sdd_matrix(std::size_t n, std::uint64_t seed) {
  rng::Stream stream(seed);
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (stream.next_double() < 0.5) {
        const double v = -1.0 - 2.0 * stream.next_double();
        m(i, j) = v;
        m(j, i) = v;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) s += std::abs(m(i, j));
    m(i, i) = s + 1.0;
  }
  return m;
}

TEST(BatchedSolve, ExactSddEnginePanelMatchesSequentialSolves) {
  const auto m = sdd_matrix(12, 13);
  const auto y = gaussian_panel(12, 8, 37, /*zero_col=*/0);
  for (const std::size_t threads : {1u, 4u}) {
    const auto ctx = runtime_for(threads).context();
    auto& registry = laplacian::EngineRegistry::instance();
    laplacian::SddEngineOptions eopt;
    eopt.network_n = 12;
    auto batched = registry.create_sdd("exact-dense", ctx, m, eopt);
    auto sequential = registry.create_sdd("exact-dense", ctx, m, eopt);
    const DenseMatrix x = batched->solve_many(y, 1e-10);
    std::vector<Vec> seq;
    for (std::size_t j = 0; j < y.cols(); ++j)
      seq.push_back(sequential->solve(y.column(j), 1e-10));
    EXPECT_TRUE(PanelMatchesColumns(x, seq)) << threads << " threads";
    EXPECT_EQ(batched->rounds_charged(), sequential->rounds_charged());
    EXPECT_EQ(batched->solve_many(DenseMatrix(12, 0), 1e-10).cols(), 0u);
  }
}

TEST(BatchedSolve, SparsifiedSddEnginePanelMatchesSequentialSolves) {
  const auto m = sdd_matrix(10, 17);
  const auto y = gaussian_panel(10, 8, 43, /*zero_col=*/6);
  for (const std::size_t threads : {1u, 4u}) {
    const auto ctx = runtime_for(threads).context().with_seed(777);
    auto& registry = laplacian::EngineRegistry::instance();
    auto batched = registry.create_sdd("sparsified-chebyshev", ctx, m, {});
    auto sequential = registry.create_sdd("sparsified-chebyshev", ctx, m, {});
    const DenseMatrix x = batched->solve_many(y, 1e-8);
    std::vector<Vec> seq;
    for (std::size_t j = 0; j < y.cols(); ++j)
      seq.push_back(sequential->solve(y.column(j), 1e-8));
    EXPECT_TRUE(PanelMatchesColumns(x, seq)) << threads << " threads";
    EXPECT_EQ(batched->rounds_charged(), sequential->rounds_charged());
  }
}

TEST(BatchedSolve, FacadePanelMatchesPerColumnFacadeSolves) {
  rng::Stream gstream(19);
  const auto g = graph::random_regularish(32, 5, 3, gstream);
  LaplacianSolveOptions lopt;
  lopt.sparsify = testsupport::small_sparsify_options(0.5, 2, 3);
  const auto b = gaussian_panel(32, 3, 47);
  RuntimeOptions opts;
  opts.threads = 2;
  opts.seed = 9;
  Runtime rt(opts);
  const auto many = rt.solve_laplacian_many(g, b, lopt);
  ASSERT_TRUE(many.usable);
  EXPECT_EQ(many.stats.panels, 1u);
  EXPECT_GT(many.stats.rounds, 0);
  std::int64_t per_column_rounds = 0;
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const auto one = rt.solve_laplacian(g, b.column(j), lopt);
    ASSERT_TRUE(one.usable);
    EXPECT_TRUE(BitwiseEqual(many.x.column(j), one.x)) << "column " << j;
    per_column_rounds += one.stats.rounds - one.preprocessing_rounds;
  }
  // Panel rounds = one preprocessing + the k columns' solve rounds.
  EXPECT_EQ(many.stats.rounds,
            many.preprocessing_rounds + per_column_rounds);
}

TEST(BatchedSolve, ChebyshevPanelDriverMatchesSingleRhsDriver) {
  // Generic operators: A = diag(1..n)/n preconditioned by B = I (kappa =
  // n). Column-wise panel ops by construction.
  const std::size_t n = 12;
  const auto apply_a_vec = [n](const Vec& v) {
    Vec y(v);
    for (std::size_t i = 0; i < n; ++i)
      y[i] *= static_cast<double>(i + 1) / static_cast<double>(n);
    return y;
  };
  const auto apply_a_panel = [&](const DenseMatrix& p) {
    DenseMatrix y = p;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < p.cols(); ++j)
        y(i, j) *= static_cast<double>(i + 1) / static_cast<double>(n);
    return y;
  };
  const auto identity = [](const auto& r) { return r; };
  const auto b = gaussian_panel(n, 5, 53, /*zero_col=*/4);
  const auto many = linalg::preconditioned_chebyshev_many(
      apply_a_panel, identity, b, static_cast<double>(n), 1e-10);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const auto one = linalg::preconditioned_chebyshev(
        apply_a_vec, identity, b.column(j), static_cast<double>(n), 1e-10);
    EXPECT_EQ(many.iterations, one.iterations);
    EXPECT_TRUE(BitwiseEqual(many.x.column(j), one.x)) << "column " << j;
  }
  // One panel application per iteration, not one per column.
  EXPECT_EQ(many.a_multiplies, many.iterations);
  EXPECT_EQ(many.b_solves, many.iterations);
}

TEST(BatchedSolve, CgPanelDriverMatchesSingleRhsDriver) {
  rng::Stream mstream(59);
  const auto a = testsupport::random_spd(16, mstream);
  const auto ctx = testsupport::test_context();
  const auto apply_vec = [&](const Vec& v) { return a.multiply(ctx, v); };
  const auto apply_panel = [&](const DenseMatrix& p) {
    DenseMatrix y(p.rows(), p.cols());
    for (std::size_t j = 0; j < p.cols(); ++j)
      y.set_column(j, a.multiply(ctx, p.column(j)));
    return y;
  };
  // A zero column converges at iteration 0; the driver must freeze it.
  const auto b = gaussian_panel(16, 6, 61, /*zero_col=*/2);
  const auto many =
      linalg::conjugate_gradient_many(apply_panel, b, 1e-10, 200);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const auto one =
        linalg::conjugate_gradient(apply_vec, b.column(j), 1e-10, 200);
    EXPECT_EQ(many.iterations[j], one.iterations) << "column " << j;
    EXPECT_EQ(many.converged[j], one.converged) << "column " << j;
    EXPECT_EQ(many.residual_norm[j], one.residual_norm) << "column " << j;
    EXPECT_TRUE(BitwiseEqual(many.x.column(j), one.x)) << "column " << j;
  }
}

TEST(BatchedSolve, ExactLaplacianSolverReusesFactorAcrossPanels) {
  rng::Stream gstream(67);
  const auto g = graph::random_connected_gnp(24, 0.3, 4, gstream);
  const auto ctx = testsupport::test_context();
  const laplacian::ExactLaplacianSolver oracle(ctx, g);
  ASSERT_TRUE(oracle.usable());
  const auto b = gaussian_panel(24, 4, 71);
  const DenseMatrix x = oracle.solve_many(b);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    EXPECT_TRUE(BitwiseEqual(x.column(j), oracle.solve(b.column(j))));
    // The one-shot convenience is the same arithmetic.
    EXPECT_TRUE(BitwiseEqual(
        x.column(j), laplacian::exact_laplacian_solve(ctx, g, b.column(j))));
  }
}

TEST(BatchedSolve, LpSolveCountsGramPanels) {
  const auto p = testsupport::diamond_lp();
  lp::LpOptions opt;
  opt.epsilon = 1e-4;
  const auto res = lp::lp_solve(testsupport::test_context(opt.seed), p,
                                {0.5, 0.5, 0.5, 0.5}, opt);
  ASSERT_TRUE(res.converged);
  // Every Newton system went through the batched interface as a k = 1
  // panel, plus the final feasibility-restoration panel.
  EXPECT_EQ(res.stats.panels, res.stats.steps + 1);
}

}  // namespace
}  // namespace bcclap
