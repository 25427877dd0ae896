// paper_solve: the paper's own pipeline (Theorem 1.3). Each op is a cold,
// uncached Runtime::solve_laplacian with the sparsified-chebyshev engine at
// eps = 1e-4 on a dense G(n, 1/2) with weights in [1, 8], on a 1-thread
// Runtime (more threads are slower at this size). Nine ops in ten have
// n = 64 and every tenth has n = 96 (about three times the work), so the
// latency tail is set by the large solves rather than by the few slowest
// moments of a shared machine. Sparsification — spanner plus bcc
// supersteps — is nearly all of the work; the dense factor of H is small,
// and neither the factor cache nor the service runs.
//
// Each op runs under its own seed on a fresh 1-thread Runtime (whose
// construction allocates no thread), as the service does for requests
// with distinct seeds. One seed for every op would give all sparsifier
// runs of a benchmark run the same coin stream, and the round count and
// time of the whole run would move together with --seed.
//
// The traced pass times each op's facade call and then replays the op
// through the layers' public calls: sparsify::spectral_sparsify on a
// benchmark-built bcc::Network, laplacian::prepare_sparsified_chebyshev
// and PreparedLaplacian::apply, plus linalg::ComponentLaplacianFactor on
// the prepared sparsifier H. A traced op thus sparsifies three times
// (facade, replay, prepare), which the overhead ratio shows.
#include <algorithm>
#include <memory>
#include <vector>

#include "bcc/network.h"
#include "bench.h"
#include "core/runtime.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "laplacian/prepared.h"
#include "linalg/cholesky.h"
#include "sparsify/spectral_sparsify.h"

namespace perfbench {
namespace {

using namespace bcclap;

constexpr std::size_t kN = 64;
constexpr std::size_t kLargeN = 96;
constexpr std::size_t kLargeEvery = 10;
constexpr double kEps = 1e-4;
// A Chebyshev solve at energy-norm accuracy eps leaves a relative residual
// of at most eps * sqrt(kappa(L_G)); dense G(n, 1/2) is well conditioned,
// so 100 * eps is a loose bound that a wrong answer still cannot meet.
constexpr double kResidualBound = 100.0 * kEps;
constexpr double kOpsPerSecond = 7.5;
constexpr std::size_t kMinOps = 40;
constexpr std::size_t kSetupReps = 16;
constexpr std::size_t kWarmupOps = 4;

struct Op {
  graph::Graph g;
  linalg::Vec b;
  std::uint64_t seed = 0;  // the op's Runtime seed
};

std::vector<Op> make_ops(rng::Stream stream, std::size_t count) {
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rng::Stream s = stream.child(i);
    const std::size_t n = i % kLargeEvery == kLargeEvery - 1 ? kLargeN : kN;
    Op op;
    op.g = graph::random_connected_gnp(n, 0.5, 8, s);
    op.b.resize(n);
    for (auto& v : op.b) v = s.next_gaussian();
    op.seed = s.next_u64();
    ops.push_back(std::move(op));
  }
  return ops;
}

RuntimeOptions runtime_options(std::uint64_t seed) {
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = seed;
  return ropts;
}

LaplacianSolveOptions solve_options() {
  LaplacianSolveOptions opt;
  opt.eps = kEps;
  opt.engine = "sparsified-chebyshev";
  opt.sparsify.epsilon = 0.5;
  opt.sparsify.k = 2;
  // t = 4 is the smallest bundle size at which the engine meets its
  // accuracy on these graphs. At t = 2 the sparsifier keeps ~76% of the
  // edges, is no longer a 1/2-approximation, and the fixed-count Chebyshev
  // iteration returns a diverged x while reporting usable; at t = 3 a few
  // ops in a thousand miss the residual bound. At t = 4 the bundle covers
  // every edge of G(64, 1/2) and G(96, 1/2).
  opt.sparsify.t = 4;
  return opt;
}

// One op: a fresh Runtime under the op's seed and one facade solve.
LaplacianRun solve(const Op& op) {
  Runtime rt(runtime_options(op.seed));
  return rt.solve_laplacian(op.g, op.b, solve_options());
}

bool answer_ok(const common::Context& ctx, const Op& op,
               const LaplacianRun& run, double* worst_residual) {
  if (!run.usable || run.stats.engine != "sparsified-chebyshev") return false;
  const double res = relative_residual(ctx, op.g, op.b, run.x);
  *worst_residual = std::max(*worst_residual, res);
  return res <= kResidualBound;
}

bool same_edges(const graph::Graph& a, const graph::Graph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges())
    return false;
  for (std::size_t e = 0; e < a.num_edges(); ++e) {
    const graph::Edge& x = a.edge(e);
    const graph::Edge& y = b.edge(e);
    if (x.u != y.u || x.v != y.v || x.weight != y.weight) return false;
  }
  return true;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<double> latency;
  std::vector<std::uint64_t> answer;
  std::int64_t rounds = 0;
};

Pass untraced_pass(const std::vector<Op>& ops, const common::Context& check,
                   Result& r, double* worst_residual) {
  Pass p;
  std::vector<LaplacianRun> runs;
  runs.reserve(ops.size());
  const auto start = Clock::now();
  for (const Op& op : ops) {
    const auto t = Clock::now();
    runs.push_back(solve(op));
    p.latency.push_back(seconds_since(t));
  }
  p.wall_s = seconds_since(start);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    r.check(answer_ok(check, ops[i], runs[i], worst_residual));
    p.rounds += runs[i].stats.rounds;
    p.answer.push_back(fnv1a_vec(runs[i].x));
  }
  return p;
}

void traced_pass(const std::vector<Op>& ops, const Pass& base, Result& r) {
  const LaplacianSolveOptions opt = solve_options();
  laplacian::EngineOptions eopt;
  eopt.eps = opt.eps;
  eopt.sparsify = opt.sparsify;
  double facade_s = 0.0, sparsify_s = 0.0, prepare_s = 0.0, apply_s = 0.0;
  double factor_s = 0.0;
  double rounds = 0.0, kept = 0.0, iterations = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Runtime rt(runtime_options(op.seed));
    const common::Context ctx = rt.context();
    LaplacianRun run;
    sparsify::SparsifyResult sp;
    std::shared_ptr<const laplacian::PreparedLaplacian> prepared;
    linalg::Vec x;
    // The three timed calls run in an order that rotates from op to op,
    // so that whichever runs first on a fresh graph, and so finds colder
    // caches, is spread evenly over them.
    const auto facade = [&] {
      const auto t = Clock::now();
      run = rt.solve_laplacian(op.g, op.b, opt);
      facade_s += seconds_since(t);
    };
    const auto replay_sparsify = [&] {
      const auto t = Clock::now();
      bcc::Network net(bcc::Model::kBroadcastCongest, op.g,
                       bcc::Network::default_bandwidth(op.g.num_vertices()),
                       ctx);
      sp = sparsify::spectral_sparsify(ctx, op.g, opt.sparsify, net);
      sparsify_s += seconds_since(t);
      rounds += static_cast<double>(net.accountant().total());
    };
    const auto prepare_apply = [&] {
      auto t = Clock::now();
      prepared =
          laplacian::prepare_sparsified_chebyshev(ctx, op.g, opt.sparsify);
      prepare_s += seconds_since(t);
      t = Clock::now();
      core::RunStats st;
      x = prepared->apply(ctx, op.b, eopt, &st);
      apply_s += seconds_since(t);
      iterations += static_cast<double>(st.iterations);
    };
    switch (i % 3) {
      case 0: facade(); replay_sparsify(); prepare_apply(); break;
      case 1: replay_sparsify(); prepare_apply(); facade(); break;
      default: prepare_apply(); facade(); replay_sparsify(); break;
    }
    kept += static_cast<double>(sp.sparsifier.num_edges()) /
            static_cast<double>(op.g.num_edges());

    // The factor of L_H, timed directly: as prepare minus sparsify it is
    // a difference of two 0.1 s clocks and lost in their noise.
    const graph::Graph* h = prepared->sparsifier();
    const auto t = Clock::now();
    const bool factored =
        h && linalg::ComponentLaplacianFactor::factor(ctx, graph::laplacian(*h))
                 .has_value();
    factor_s += seconds_since(t);

    // Fidelity: the facade and the replay must both reproduce the
    // untraced answer bytes, and the benchmark's own sparsifier run must
    // match the one prepare built.
    const bool same_h = prepared->tree_patched() ||
                        (h && same_edges(*h, sp.sparsifier));
    r.check(fnv1a_vec(run.x) == base.answer[i] &&
            fnv1a_vec(x) == base.answer[i] && same_h && factored);
  }
  const double wall = seconds_since(start);

  const double n = static_cast<double>(ops.size());
  r.metric("trace.overhead_ratio", base.wall_s / wall, "ratio");
  r.metric("trace.attributed_share", (prepare_s + apply_s) / facade_s,
           "ratio");
  r.metric("sparsify.busy_s", sparsify_s / n, "s");
  r.metric("sparsify.rounds", rounds / n, "count");
  r.metric("sparsify.kept_edge_ratio", kept / n, "ratio");
  r.metric("laplacian.prepare_s", prepare_s / n, "s");
  r.metric("linalg.factor_s", factor_s / n, "s");
  r.metric("laplacian.apply_s", apply_s / n, "s");
  r.metric("laplacian.iterations", iterations / n, "count");
  r.metric("core.facade_other_s", (facade_s - prepare_s - apply_s) / n, "s");
}

}  // namespace

Result run_paper_solve(const Args& args) {
  Result r;
  const rng::Stream root(args.seed);
  const std::size_t n_ops =
      op_count(kOpsPerSecond, args.trace ? args.seconds / 4.0 : args.seconds,
               kMinOps);
  const std::vector<Op> ops = make_ops(root.child("ops"), n_ops);
  const std::vector<Op> warm = make_ops(root.child("warmup"), kSetupReps);
  Runtime check_rt(runtime_options(0));
  const common::Context check = check_rt.context();
  double worst_residual = 0.0;

  // Set-up is Runtime construction plus one op, which solve() does.
  std::vector<double> setup;
  const auto set_up = [&] {
    const Op& w = warm[setup.size()];
    const auto t = Clock::now();
    const LaplacianRun run = solve(w);
    setup.push_back(seconds_since(t));
    r.check(answer_ok(check, w, run, &worst_residual));
  };
  for (std::size_t rep = 0; rep < kSetupReps / 2; ++rep) set_up();
  for (std::size_t i = 0; i < kWarmupOps; ++i)
    r.check(answer_ok(check, warm[i], solve(warm[i]), &worst_residual));

  const double ref_before = reference_loop_s();
  const Pass base = untraced_pass(ops, check, r, &worst_residual);
  const double ref_after = reference_loop_s();
  add_reference_diagnostics(r, ref_before, ref_after);
  r.diag("worst_relative_residual", worst_residual);

  // BCC rounds charged per op: the paper's cost model, deterministic for a
  // seed. It is a per-layer metric because service_stream's exact engines
  // charge none.
  const double rounds_per_op =
      static_cast<double>(base.rounds) / static_cast<double>(ops.size());
  r.diag("rounds_per_op", rounds_per_op);
  if (args.trace) {
    traced_pass(ops, base, r);
    r.metric("bcc.rounds_per_op", rounds_per_op, "count");
    return r;
  }
  const double rss_mb = peak_rss_mb();
  while (setup.size() < kSetupReps) set_up();
  add_end_to_end(r, base.wall_s, base.latency, setup, rss_mb);
  return r;
}

}  // namespace perfbench
