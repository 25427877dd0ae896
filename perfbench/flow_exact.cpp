// flow_exact: Theorem 1.1's exact min-cost max-flow. Each op is
// Runtime::min_cost_max_flow on random_flow_network(12, 16, 3, 3) on a
// 1-thread Runtime, checked against the successive-shortest-path baseline
// flow::min_cost_max_flow_ssp. The IPM (barrier, Newton
// steps, Gram assembly) and the flow rounding do the work; the Laplacian
// side is thousands of tiny dense Gram systems, so sparsify, the sparse
// factor, the cache and the service do nothing.
//
// The traced pass calls flow::min_cost_max_flow_ipm directly with an
// LpOptions::gram_factory that builds the same engine the default path
// builds (EngineRegistry::create_sdd("auto", ctx, gram, {rows + 1,
// 1e-12})) and times its construction and its solves.
#include <memory>
#include <vector>

#include "bench.h"
#include "core/runtime.h"
#include "flow/mcmf_solver.h"
#include "flow/ssp.h"
#include "graph/generators.h"
#include "laplacian/engine.h"

namespace perfbench {
namespace {

using namespace bcclap;

constexpr std::size_t kN = 12;
constexpr double kOpsPerSecond = 90.0;
constexpr std::size_t kMinOps = 60;
constexpr std::size_t kSetupReps = 32;
constexpr std::size_t kWarmupOps = 20;

struct Op {
  graph::Digraph g;
  std::size_t s = 0;
  std::size_t t = 0;
  graph::FlowResult reference;
  std::uint64_t seed = 0;  // McmfOptions::seed, the perturbation stream
};

std::vector<Op> make_ops(rng::Stream stream, std::size_t count) {
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rng::Stream s = stream.child(i);
    Op op;
    op.g = graph::random_flow_network(kN, 16, 3, 3, s);
    op.t = kN - 1;
    op.reference = flow::min_cost_max_flow_ssp(op.g, op.s, op.t);
    op.seed = s.next_u64();
    ops.push_back(std::move(op));
  }
  return ops;
}

// Each op draws its own cost perturbation, as independent requests would;
// one stream for every op would make the retry count of a whole run move
// with --seed.
flow::McmfOptions mcmf_options(const Op& op) {
  flow::McmfOptions mopt;
  mopt.seed = op.seed;
  return mopt;
}

bool matches(const Op& op, const flow::McmfIpmResult& res) {
  return res.exact && res.flow.value == op.reference.value &&
         res.flow.cost == op.reference.cost;
}

std::uint64_t answer_hash(const flow::McmfIpmResult& res) {
  std::uint64_t h = fnv1a_vec(res.flow.flow);
  h = fnv1a(&res.flow.value, sizeof res.flow.value, h);
  h = fnv1a(&res.flow.cost, sizeof res.flow.cost, h);
  return fnv1a(&res.rounds, sizeof res.rounds, h);
}

struct Pass {
  double wall_s = 0.0;
  std::vector<double> latency;
  std::vector<std::uint64_t> answer;
  std::int64_t rounds = 0;
};

Pass untraced_pass(Runtime& rt, const std::vector<Op>& ops, Result& r) {
  Pass p;
  std::vector<McmfRun> runs;
  runs.reserve(ops.size());
  const auto start = Clock::now();
  for (const Op& op : ops) {
    const auto t = Clock::now();
    runs.push_back(rt.min_cost_max_flow(op.g, op.s, op.t, mcmf_options(op)));
    p.latency.push_back(seconds_since(t));
  }
  p.wall_s = seconds_since(start);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    r.check(matches(ops[i], runs[i].result));
    p.rounds += runs[i].stats.rounds;
    p.answer.push_back(answer_hash(runs[i].result));
  }
  return p;
}

// Forwards to the engine the default Gram path would build, timing its
// solves into *solve_s.
class TimedSdd final : public laplacian::SddEngine {
 public:
  TimedSdd(std::unique_ptr<laplacian::SddEngine> inner, double* solve_s)
      : inner_(std::move(inner)), solve_s_(solve_s) {}

  linalg::Vec solve(const linalg::Vec& y, double eps) override {
    const auto t = Clock::now();
    linalg::Vec x = inner_->solve(y, eps);
    *solve_s_ += seconds_since(t);
    return x;
  }
  linalg::DenseMatrix solve_many(const linalg::DenseMatrix& y,
                                 double eps) override {
    const auto t = Clock::now();
    linalg::DenseMatrix x = inner_->solve_many(y, eps);
    *solve_s_ += seconds_since(t);
    return x;
  }
  std::int64_t rounds_charged() const override {
    return inner_->rounds_charged();
  }
  std::string_view key() const override { return inner_->key(); }

 private:
  std::unique_ptr<laplacian::SddEngine> inner_;
  double* solve_s_;
};

void traced_pass(Runtime& rt, const std::vector<Op>& ops, const Pass& base,
                 Result& r) {
  const common::Context ctx = rt.context();
  double gram_factor_s = 0.0, newton_solve_s = 0.0;
  std::size_t gram_systems = 0;
  const lp::GramSolverFactory timed_gram =
      [&](const linalg::DenseMatrix& gram) {
    const auto t = Clock::now();
    laplacian::SddEngineOptions eopt;
    eopt.network_n = gram.rows() + 1;
    eopt.eps_hint = 1e-12;
    auto inner = laplacian::EngineRegistry::instance().create_sdd(
        "auto", ctx, gram, eopt);
    gram_factor_s += seconds_since(t);
    ++gram_systems;
    return std::make_unique<TimedSdd>(std::move(inner), &newton_solve_s);
  };

  double mcmf_s = 0.0, path_steps = 0.0, newton_steps = 0.0, retries = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    flow::McmfOptions mopt = mcmf_options(op);
    mopt.lp.gram_factory = timed_gram;
    const auto t = Clock::now();
    const auto res = flow::min_cost_max_flow_ipm(ctx, op.g, op.s, op.t, mopt);
    mcmf_s += seconds_since(t);
    path_steps += static_cast<double>(res.path_steps);
    newton_steps += static_cast<double>(res.newton_steps);
    retries += static_cast<double>(res.retries);
    r.check(matches(op, res) && answer_hash(res) == base.answer[i]);
  }
  const double wall = seconds_since(start);

  const double n = static_cast<double>(ops.size());
  r.metric("trace.overhead_ratio", base.wall_s / wall, "ratio");
  r.metric("trace.attributed_share", (gram_factor_s + newton_solve_s) / mcmf_s,
           "ratio");
  r.metric("flow.mcmf_s", mcmf_s / n, "s");
  r.metric("lp.gram_factor_s", gram_factor_s / n, "s");
  r.metric("lp.gram_systems", static_cast<double>(gram_systems) / n, "count");
  r.metric("lp.newton_solve_s", newton_solve_s / n, "s");
  r.metric("lp.ipm_other_s", (mcmf_s - gram_factor_s - newton_solve_s) / n,
           "s");
  r.metric("lp.path_steps", path_steps / n, "count");
  r.metric("lp.newton_steps", newton_steps / n, "count");
  r.metric("flow.retries", retries / n, "count");
}

}  // namespace

Result run_flow_exact(const Args& args) {
  Result r;
  const rng::Stream root(args.seed);
  const std::size_t n_ops = op_count(
      kOpsPerSecond, args.trace ? args.seconds / 2.0 : args.seconds, kMinOps);
  const std::vector<Op> ops = make_ops(root.child("ops"), n_ops);
  const std::vector<Op> warm = make_ops(root.child("warmup"), kWarmupOps);

  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = args.seed;
  std::unique_ptr<Runtime> rt;
  std::vector<double> setup;
  const auto set_up = [&] {
    rt.reset();
    const auto t = Clock::now();
    rt = std::make_unique<Runtime>(ropts);
    const Op& w = warm[setup.size() % warm.size()];
    const McmfRun run = rt->min_cost_max_flow(w.g, w.s, w.t, mcmf_options(w));
    setup.push_back(seconds_since(t));
    r.check(matches(w, run.result));
  };
  for (std::size_t rep = 0; rep < kSetupReps / 2; ++rep) set_up();
  for (const Op& w : warm)
    r.check(matches(w, rt->min_cost_max_flow(w.g, w.s, w.t, mcmf_options(w))
                           .result));

  const double ref_before = reference_loop_s();
  const Pass base = untraced_pass(*rt, ops, r);
  const double ref_after = reference_loop_s();
  add_reference_diagnostics(r, ref_before, ref_after);

  const double rounds_per_op =
      static_cast<double>(base.rounds) / static_cast<double>(ops.size());
  r.diag("rounds_per_op", rounds_per_op);
  if (args.trace) {
    traced_pass(*rt, ops, base, r);
    r.metric("bcc.rounds_per_op", rounds_per_op, "count");
    return r;
  }
  const double rss_mb = peak_rss_mb();
  while (setup.size() < kSetupReps) set_up();
  add_end_to_end(r, base.wall_s, base.latency, setup, rss_mb);
  return r;
}

}  // namespace perfbench
