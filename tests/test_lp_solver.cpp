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
#include "linalg/ldlt.h"
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

// lp_solve holds one engine across its Gram systems (one per Newton step
// plus the final feasibility restoration) and refactors it in place; a
// factory, the registry entry behind LpOptions::engine or the caller's
// gram_factory, is called again only when the held engine declines
// refactor. An engine that declines (the counting wrapper below) gets one
// engine per system, with the same bytes and counters as the default path.
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
  // The bare exact engine refactors, so the hook builds one per lp_solve.
  EXPECT_EQ(called, 1u);
  EXPECT_EQ(by_hook.stats.engine, "exact-dense");

  // Under "auto" the run names the key the tuner resolved; every path
  // builds the same exact-dense arithmetic.
  LpOptions tuned;
  tuned.epsilon = 1e-4;
  const auto by_auto = lp_solve(test_context(tuned.seed), p, x0, tuned);
  ASSERT_TRUE(by_auto.converged);
  EXPECT_EQ(by_auto.stats.engine, "exact-dense");
  // The refactoring default path and the engine-per-system path agree.
  EXPECT_TRUE(bitwise_equal(by_auto.x, by_key.x));
  EXPECT_EQ(by_auto.stats.rounds, by_key.stats.rounds);
  EXPECT_EQ(by_auto.stats.panels, by_key.stats.panels);
  EXPECT_EQ(by_auto.stats.steps, by_key.stats.steps);
  EXPECT_EQ(by_auto.stats.panels, by_auto.stats.steps + 1);
  EXPECT_TRUE(bitwise_equal(by_auto.x, by_hook.x));
  EXPECT_EQ(by_auto.stats.rounds, by_hook.stats.rounds);
}

// A phase 1 that stalls returns early; the run still names the engine
// that served its Gram systems.
TEST(LpSolver, StalledPhaseOneReportsEngine) {
  const auto p = testsupport::diamond_lp();
  LpOptions opt;
  opt.epsilon = 1e-4;
  opt.max_path_steps = 1;
  const auto res =
      lp_solve(test_context(opt.seed), p, {0.5, 0.5, 0.5, 0.5}, opt);
  ASSERT_FALSE(res.converged);
  EXPECT_GT(res.stats.panels, 0u);
  EXPECT_EQ(res.stats.panels, res.stats.steps);
  EXPECT_EQ(res.stats.engine, "exact-dense");
}

// A Gram that only factors with the ridge: [[1, 1], [1, 1]] is singular.
// The refactored engine gives the bytes and rounds of a fresh engine,
// whether it was fresh itself or had already solved another system.
TEST(LpSolver, ExactEngineRefactorMatchesFreshEngine) {
  linalg::DenseMatrix singular(2, 2);
  singular(0, 0) = singular(0, 1) = singular(1, 0) = singular(1, 1) = 1.0;
  linalg::DenseMatrix other(2, 2);
  other(0, 0) = 4.0;
  other(0, 1) = other(1, 0) = 1.0;
  other(1, 1) = 3.0;
  ASSERT_FALSE(linalg::LdltFactor::factor(test_context(), singular));
  const linalg::DenseMatrix y = linalg::DenseMatrix::from_columns({{1.0, 2.0}});
  const auto fresh =
      laplacian::make_exact_sdd_engine(test_context(), singular, 3);
  const linalg::DenseMatrix want = fresh->solve_many(y, 1e-12);

  const auto unused =
      laplacian::make_exact_sdd_engine(test_context(), other, 3);
  ASSERT_TRUE(unused->refactor(singular));
  EXPECT_TRUE(bitwise_equal(unused->solve_many(y, 1e-12).column(0),
                            want.column(0)));
  EXPECT_EQ(unused->rounds_charged(), fresh->rounds_charged());

  const auto used = laplacian::make_exact_sdd_engine(test_context(), other, 3);
  used->solve_many(y, 1e-6);
  const std::int64_t before = used->rounds_charged();
  ASSERT_TRUE(used->refactor(singular));
  EXPECT_TRUE(bitwise_equal(used->solve_many(y, 1e-12).column(0),
                            want.column(0)));
  EXPECT_EQ(used->rounds_charged() - before, fresh->rounds_charged());

  // A matrix that fails even with the ridge is declined.
  linalg::DenseMatrix indefinite(2, 2);
  indefinite(0, 0) = indefinite(1, 1) = 1.0;
  indefinite(0, 1) = indefinite(1, 0) = 2.0;
  EXPECT_FALSE(used->refactor(indefinite));
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
