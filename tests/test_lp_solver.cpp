#include "lp/lp_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "flow/mcmf_lp.h"
#include "graph/generators.h"
#include "laplacian/bcc_solver.h"
#include "laplacian/engine.h"
#include "support/fixtures.h"

namespace bcclap::lp {
namespace {

using testsupport::test_context;

// min c^T x  s.t.  x_1 + x_2 = 1, 0 <= x <= 1.
LpProblem simplex2(double c1, double c2) {
  LpProblem p;
  p.a = linalg::CsrMatrix(2, 1, {{0, 0, 1.0}, {1, 0, 1.0}});
  p.b = {1.0};
  p.c = {c1, c2};
  p.lower = {0.0, 0.0};
  p.upper = {1.0, 1.0};
  return p;
}

TEST(LpSolver, TwoVariableSimplexVanilla) {
  const auto prob = simplex2(1.0, 2.0);
  LpOptions opt;
  opt.weights = WeightMode::kVanilla;
  opt.epsilon = 1e-6;
  const auto res = lp_solve(test_context(opt.seed), prob, {0.5, 0.5}, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.objective, 1.0, 1e-4);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 0.0, 1e-3);
  EXPECT_NEAR(res.x[0] + res.x[1], 1.0, 1e-7);  // feasibility maintained
}

TEST(LpSolver, TwoVariableSimplexLewis) {
  const auto prob = simplex2(2.0, 1.0);
  LpOptions opt;
  opt.weights = WeightMode::kLewis;
  opt.epsilon = 1e-5;
  const auto res = lp_solve(test_context(opt.seed), prob, {0.5, 0.5}, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.objective, 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 1.0, 5e-3);
}

TEST(LpSolver, DegenerateTieStaysFeasible) {
  // c1 == c2: every feasible point optimal; check feasibility + objective.
  const auto prob = simplex2(1.0, 1.0);
  LpOptions opt;
  opt.epsilon = 1e-6;
  const auto res = lp_solve(test_context(opt.seed), prob, {0.3, 0.7}, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.objective, 1.0, 1e-6);
  EXPECT_NEAR(res.x[0] + res.x[1], 1.0, 1e-7);
}

// Random transportation-style LP: x >= 0, column-sum constraints, compare
// against brute-force over vertices (small sizes).
TEST(LpSolver, BoxConstrainedKnownOptimum) {
  // min -x1 - 2 x2 s.t. x1 + x2 = 1.5, 0 <= x <= 1 -> x = (0.5, 1).
  LpProblem p;
  p.a = linalg::CsrMatrix(2, 1, {{0, 0, 1.0}, {1, 0, 1.0}});
  p.b = {1.5};
  p.c = {-1.0, -2.0};
  p.lower = {0.0, 0.0};
  p.upper = {1.0, 1.0};
  LpOptions opt;
  opt.epsilon = 1e-6;
  const auto res = lp_solve(test_context(opt.seed), p, {0.75, 0.75}, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.objective, -2.5, 1e-4);
  EXPECT_NEAR(res.x[0], 0.5, 1e-3);
  EXPECT_NEAR(res.x[1], 1.0, 1e-3);
}

TEST(LpSolver, MultiConstraintDiamond) {
  // Variables x in R^4 with A^T x = b enforcing two sums:
  //   x1 + x2 = 1, x3 + x4 = 1, minimize x1 + 3x2 + 2x3 + x4 -> (1,0,0,1).
  const auto p = testsupport::diamond_lp();
  LpOptions opt;
  opt.epsilon = 1e-6;
  const auto res =
      lp_solve(test_context(opt.seed), p, {0.5, 0.5, 0.5, 0.5}, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.objective, 2.0, 1e-3);
  EXPECT_NEAR(res.x[0], 1.0, 5e-3);
  EXPECT_NEAR(res.x[3], 1.0, 5e-3);
}

TEST(LpSolver, ShortStepModeConverges) {
  const auto prob = simplex2(1.0, 4.0);
  LpOptions opt;
  opt.steps = StepMode::kShortStep;
  opt.alpha_constant = 2.0;
  opt.epsilon = 1e-4;
  const auto res = lp_solve(test_context(opt.seed), prob, {0.5, 0.5}, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.objective, 1.0, 1e-2);
  EXPECT_GT(res.stats.iterations, 10u);  // short steps take many path steps
}

TEST(LpSolver, ReportsAccounting) {
  const auto prob = simplex2(1.0, 2.0);
  LpOptions opt;
  opt.epsilon = 1e-4;
  const auto res = lp_solve(test_context(opt.seed), prob, {0.5, 0.5}, opt);
  EXPECT_GT(res.stats.rounds, 0);
  EXPECT_GT(res.stats.steps, 0u);
  EXPECT_GT(res.stats.iterations, 0u);
}

// Forwards to an exact-dense engine under its own registry key.
class CountedSdd final : public laplacian::SddEngine {
 public:
  explicit CountedSdd(std::unique_ptr<laplacian::SddEngine> inner)
      : inner_(std::move(inner)) {}
  linalg::Vec solve(const linalg::Vec& y, double eps) override {
    return inner_->solve(y, eps);
  }
  linalg::DenseMatrix solve_many(const linalg::DenseMatrix& y,
                                 double eps) override {
    return inner_->solve_many(y, eps);
  }
  std::int64_t rounds_charged() const override {
    return inner_->rounds_charged();
  }
  std::string_view key() const override { return "test-counting-sdd"; }

 private:
  std::unique_ptr<laplacian::SddEngine> inner_;
};

bool bitwise_equal(const linalg::Vec& a, const linalg::Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// lp_solve builds one engine per Gram system (one per Newton step plus the
// final feasibility restoration), whether the registry entry behind
// LpOptions::engine builds it or the caller's gram_factory does.
TEST(LpSolver, GramEnginePerSystem) {
  const auto p = testsupport::diamond_lp();
  const linalg::Vec x0 = {0.5, 0.5, 0.5, 0.5};
  std::size_t built = 0;
  // Registered through the registry's latest-wins seam: a prepare
  // function borrowed from exact-dense and a counting SDD factory.
  laplacian::EngineRegistry::instance().register_engine(
      "test-counting-sdd",
      [](const common::Context& ctx, const graph::Graph& g,
         const laplacian::EngineOptions& eopt) {
        return laplacian::EngineRegistry::instance().prepare("exact-dense",
                                                             ctx, g, eopt);
      },
      [&built](const common::Context& ctx, linalg::DenseMatrix m,
               const laplacian::SddEngineOptions& eopt) {
        ++built;
        return std::make_unique<CountedSdd>(laplacian::make_exact_sdd_engine(
            ctx, std::move(m), eopt.network_n));
      });
  LpOptions keyed;
  keyed.epsilon = 1e-4;
  keyed.engine = "test-counting-sdd";
  const auto by_key = lp_solve(test_context(keyed.seed), p, x0, keyed);
  ASSERT_TRUE(by_key.converged);
  EXPECT_EQ(built, by_key.stats.steps + 1);
  EXPECT_EQ(by_key.stats.engine, "test-counting-sdd");

  std::size_t called = 0;
  LpOptions hooked;
  hooked.epsilon = 1e-4;
  hooked.gram_factory = [&called](const linalg::DenseMatrix& gram) {
    ++called;
    return laplacian::make_exact_sdd_engine(test_context(), gram,
                                            gram.rows() + 1);
  };
  const auto by_hook = lp_solve(test_context(hooked.seed), p, x0, hooked);
  ASSERT_TRUE(by_hook.converged);
  EXPECT_EQ(called, by_hook.stats.steps + 1);

  // Under "auto" the run names the key the tuner resolved; every path
  // builds the same exact-dense arithmetic.
  LpOptions tuned;
  tuned.epsilon = 1e-4;
  const auto by_auto = lp_solve(test_context(tuned.seed), p, x0, tuned);
  ASSERT_TRUE(by_auto.converged);
  EXPECT_EQ(by_auto.stats.engine, "exact-dense");
  EXPECT_EQ(by_auto.stats.steps, by_key.stats.steps);
  EXPECT_TRUE(bitwise_equal(by_auto.x, by_key.x));
  EXPECT_TRUE(bitwise_equal(by_auto.x, by_hook.x));
}

// Lewis weights on these flow LPs come from leverage-score oracles whose
// Gram defeats both the plain factorization and the per-entry ridge; the
// answer must still be defined: finite, and the same bytes on a rerun.
TEST(LpSolver, LewisFlowLpIsDefined) {
  for (std::uint64_t s : {1u, 3u, 5u}) {
    SCOPED_TRACE(s);
    rng::Stream gs(s);
    const auto g = graph::random_flow_network(8, 8, 3, 3, gs);
    rng::Stream ps(s + 1000);
    const auto lp = flow::build_mcmf_lp(g, 0, 7, ps);
    LpOptions opt;
    opt.weights = WeightMode::kLewis;
    opt.epsilon = 1e-3;
    const auto first =
        lp_solve(test_context(opt.seed), lp.problem, lp.interior_point, opt);
    const auto again =
        lp_solve(test_context(opt.seed), lp.problem, lp.interior_point, opt);
    for (double v : first.x) ASSERT_TRUE(std::isfinite(v));
    EXPECT_TRUE(bitwise_equal(first.x, again.x));
    EXPECT_EQ(first.stats.steps, again.stats.steps);
  }
}

TEST(LpSolver, GramAssembly) {
  // A = [1 0; 1 1; 0 2], D = diag(1,2,3):
  // A^T D A = [[1+2, 2],[2, 2+12]].
  linalg::CsrMatrix a(3, 2, {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 1.0},
                             {2, 1, 2.0}});
  const auto gram = assemble_gram(a, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(gram(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(gram(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(gram(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(gram(1, 1), 14.0);
}

}  // namespace
}  // namespace bcclap::lp
