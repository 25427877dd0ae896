// Golden pins for the interior-point LP solver and the exact min-cost flow
// built on it: for fixed LPs and flow networks, the bytes of every lp_solve
// iterate (with its path-step count and convergence flag) and of every
// min_cost_max_flow_ipm answer (flow, value, cost, retries) are pinned to
// values recorded before the Newton step was reworked. The
// Newton-step counts recorded with them bound the new ones: adaptive runs
// must come in strictly below (they no longer re-center an iterate that is
// already centered at its path parameter), short-step runs never hit that
// case and must match. Every case runs at 1 and 4 threads. Unlike the
// factor pins, these go through libm (the barrier's tan and cos, the step
// schedule's log2 and pow), so they hold for the glibc x86-64 math library
// they were recorded with.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "common/rng.h"
#include "core/runtime.h"
#include "flow/mcmf_lp.h"
#include "flow/mcmf_solver.h"
#include "graph/generators.h"
#include "lp/lp_solver.h"
#include "support/fixtures.h"
#include "support/fnv.h"

namespace bcclap {
namespace {

using testsupport::Fnv;

struct LpPin {
  std::uint64_t hash;          // x bits, path_steps, converged
  std::size_t newton_before;   // newton_steps before the rework
};

std::uint64_t lp_hash(const lp::LpResult& res) {
  Fnv h;
  h.feed(res.x);
  h.feed(static_cast<std::uint64_t>(res.stats.iterations));
  h.feed(static_cast<std::uint64_t>(res.converged));
  return h.value();
}

lp::LpOptions vanilla(lp::StepMode steps) {
  lp::LpOptions opt;
  opt.weights = lp::WeightMode::kVanilla;
  opt.steps = steps;
  if (steps == lp::StepMode::kShortStep) {
    opt.alpha_constant = 2.0;
    opt.epsilon = 1e-3;
  } else {
    opt.epsilon = 1e-6;
  }
  return opt;
}

// Flow LPs of the benchmark's flow_exact shape, random_flow_network(12, 16,
// 3, 3), with the Section 5 interior point.
flow::McmfLp flow_lp(std::uint64_t seed) {
  rng::Stream gs(seed);
  const auto g = graph::random_flow_network(12, 16, 3, 3, gs);
  rng::Stream ps(seed + 100);
  return flow::build_mcmf_lp(g, 0, 11, ps);
}

constexpr std::uint64_t kFlowSeeds[] = {1, 2, 3};

class IpmGolden : public ::testing::TestWithParam<std::size_t> {
 protected:
  IpmGolden() : rt_(options(GetParam())) {}
  static RuntimeOptions options(std::size_t threads) {
    RuntimeOptions opts;
    opts.threads = threads;
    return opts;
  }

  // Runs one LP and checks it against its pin and its Newton count.
  void check_lp(const lp::LpProblem& prob, const linalg::Vec& x0,
                lp::StepMode steps, const LpPin& pin) {
    const auto res = lp::lp_solve(rt_.context(), prob, x0, vanilla(steps));
    EXPECT_EQ(lp_hash(res), pin.hash)
        << std::hex << "0x" << lp_hash(res) << std::dec
        << " newton_steps=" << res.stats.steps;
    if (steps == lp::StepMode::kAdaptive) {
      EXPECT_LT(res.stats.steps, pin.newton_before);
    } else {
      EXPECT_EQ(res.stats.steps, pin.newton_before);
    }
    // Every Gram system is one counted panel: one per Newton step plus
    // the final feasibility restoration.
    EXPECT_EQ(res.stats.panels, res.stats.steps + 1);
  }

  Runtime rt_;
};

TEST_P(IpmGolden, DiamondAdaptive) {
  check_lp(testsupport::diamond_lp(), {0.5, 0.5, 0.5, 0.5},
           lp::StepMode::kAdaptive, {0x53ef21e9ffac8aa5ull, 275});
}

TEST_P(IpmGolden, DiamondShortStep) {
  check_lp(testsupport::diamond_lp(), {0.5, 0.5, 0.5, 0.5},
           lp::StepMode::kShortStep, {0xd8961b111842311dull, 125});
}

TEST_P(IpmGolden, FlowLpAdaptive) {
  const LpPin pins[] = {{0x74d3e6c1f6f60727ull, 2367},
                         {0xbf98a9612250b27full, 2802},
                         {0xdc2c678938bbab46ull, 713}};
  for (std::size_t i = 0; i < std::size(kFlowSeeds); ++i) {
    SCOPED_TRACE(kFlowSeeds[i]);
    const auto lp = flow_lp(kFlowSeeds[i]);
    check_lp(lp.problem, lp.interior_point, lp::StepMode::kAdaptive,
             pins[i]);
  }
}

TEST_P(IpmGolden, FlowLpShortStep) {
  const LpPin pins[] = {{0x9e36d48a24381714ull, 2284},
                         {0x7cfb20bd61679abaull, 2329},
                         {0xf91b2145051c2901ull, 2336}};
  for (std::size_t i = 0; i < std::size(kFlowSeeds); ++i) {
    SCOPED_TRACE(kFlowSeeds[i]);
    const auto lp = flow_lp(kFlowSeeds[i]);
    check_lp(lp.problem, lp.interior_point, lp::StepMode::kShortStep,
             pins[i]);
  }
}

// The answer pins hash (flow, value, cost, retries) and hold the values
// recorded before the Stage B probe order changed: certifying the F*
// flow and skipping the F*+1 probe moves no answer. The path-step pins
// are the current counts; the Newton counts recorded with the pre-rework
// answers bound the current ones.
TEST_P(IpmGolden, MinCostMaxFlow) {
  struct McmfPin {
    std::uint64_t answer;       // flow, value, cost, retries
    std::size_t path_steps;     // all stages and attempts
    std::size_t newton_before;  // newton_steps before the rework
  };
  const McmfPin pins[] = {{0x4cd8ad3c2f1b1fdbull, 286, 3720},
                          {0x8cf9d3b04b1fd161ull, 286, 1594},
                          {0xe41b44e9315fe8e2ull, 282, 1504}};
  for (std::size_t i = 0; i < std::size(kFlowSeeds); ++i) {
    SCOPED_TRACE(kFlowSeeds[i]);
    rng::Stream gs(kFlowSeeds[i]);
    const auto g = graph::random_flow_network(12, 16, 3, 3, gs);
    flow::McmfOptions opt;
    opt.seed = kFlowSeeds[i] * 977 + 13;
    const auto res =
        flow::min_cost_max_flow_ipm(rt_.context(), g, 0, 11, opt);
    ASSERT_TRUE(res.exact);
    Fnv h;
    for (std::int64_t f : res.flow.flow)
      h.feed(static_cast<std::uint64_t>(f));
    h.feed(static_cast<std::uint64_t>(res.flow.value));
    h.feed(static_cast<std::uint64_t>(res.flow.cost));
    h.feed(static_cast<std::uint64_t>(res.retries));
    EXPECT_EQ(h.value(), pins[i].answer)
        << std::hex << "0x" << h.value() << std::dec;
    EXPECT_EQ(res.path_steps, pins[i].path_steps);
    EXPECT_LT(res.newton_steps, pins[i].newton_before);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, IpmGolden, ::testing::Values(1, 4));

}  // namespace
}  // namespace bcclap
