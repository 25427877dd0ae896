// service_stream: one SolverService (2 workers, 1-thread Runtimes, one
// shared FactorCache) fed by a closed loop of kWindow client threads, each
// with one request in flight. The clients block on their replies instead
// of one thread polling a window: polling costs a core's wakeups on a
// 4-core machine and delays every reply by up to a poll interval.
//
// Requests ask for engine "auto" on random_regularish(2048, 8) topologies,
// which the tuner resolves to exact-sparse. Most are warm single solves,
// which the service may coalesce into panels; one in eight is a solve_many
// panel. A new topology arrives every kOpsPerNewTopology requests: its
// first touch is the cold prepare (AMD ordering, supernodal factor, dense
// tail) written into the cache beside the warm reads, and it joins the
// warm traffic kArrivalLag requests later. The cold prepares are the
// latency tail. The service, the cache and the exact engine's triangular
// solves do the work; nothing is sparsified.
//
// The cache budget is far above the working set, so no entry is evicted
// and the cold-prepare count is exactly the number of distinct topologies
// whatever the timing.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/runtime.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "laplacian/prepared.h"
#include "linalg/amd.h"
#include "linalg/csc_matrix.h"
#include "service/journal.h"
#include "service/solver_service.h"

namespace perfbench {
namespace {

using namespace bcclap;

constexpr std::size_t kN = 2048;
constexpr std::size_t kDegree = 8;
constexpr double kEps = 1e-8;
// The exact engine solves to round-off; 100 * eps still rejects any answer
// that is not a solution.
constexpr double kResidualBound = 100.0 * kEps;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWindow = 4;
constexpr std::size_t kInitialTopologies = 4;
constexpr std::size_t kOpsPerNewTopology = 192;
constexpr std::size_t kArrivalLag = 96;
constexpr std::size_t kPanelEvery = 8;
constexpr std::size_t kPanelWidth = 4;
constexpr std::size_t kRhsPool = 64;
constexpr std::size_t kPanelPool = 8;
constexpr std::size_t kCacheBytes = std::size_t{8} << 30;
constexpr std::size_t kSampledPerTopology = 12;
constexpr double kOpsPerSecond = 150.0;
constexpr std::size_t kMinOps = 2 * kOpsPerNewTopology;
constexpr std::size_t kSetupReps = 4;
constexpr std::size_t kWarmupOps = 16;

struct Op {
  std::size_t topology = 0;
  bool panel = false;
  std::size_t rhs = 0;  // index into the RHS or the panel pool
};

struct Inputs {
  std::vector<graph::Graph> topologies;
  std::vector<linalg::Vec> rhs;
  std::vector<linalg::DenseMatrix> panels;
  std::vector<Op> ops;
  std::vector<Op> warmup;
};

// Topologies [0, kInitialTopologies) form the initial working set; one
// more arrives every kOpsPerNewTopology ops, and every topology is
// touched. Consecutive requests repeat the previous topology half the
// time, so same-fingerprint singles meet in the queue and can coalesce.
Inputs make_inputs(const rng::Stream& root, std::size_t n_ops) {
  Inputs in;
  const std::size_t arrivals = (n_ops - 1) / kOpsPerNewTopology;
  for (std::size_t i = 0; i < kInitialTopologies + arrivals; ++i) {
    rng::Stream s = root.child("topology").child(i);
    in.topologies.push_back(graph::random_regularish(kN, kDegree, 4, s));
  }
  rng::Stream rs = root.child("rhs");
  for (std::size_t i = 0; i < kRhsPool; ++i) {
    linalg::Vec b(kN);
    for (auto& v : b) v = rs.next_gaussian();
    in.rhs.push_back(std::move(b));
  }
  for (std::size_t i = 0; i < kPanelPool; ++i) {
    linalg::DenseMatrix p(kN, kPanelWidth);
    for (std::size_t r = 0; r < kN; ++r)
      for (std::size_t c = 0; c < kPanelWidth; ++c)
        p(r, c) = rs.next_gaussian();
    in.panels.push_back(std::move(p));
  }

  rng::Stream os = root.child("ops");
  std::size_t warm_count = kInitialTopologies;  // topologies open to traffic
  std::size_t prev = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    if (i % kOpsPerNewTopology == 0 && i > 0) {  // an arrival's first touch
      op.topology = kInitialTopologies + i / kOpsPerNewTopology - 1;
    } else {
      if (i % kOpsPerNewTopology == kArrivalLag && i > kOpsPerNewTopology)
        ++warm_count;
      op.topology = os.bernoulli(0.5) ? prev : os.next_below(warm_count);
      op.panel = os.next_below(kPanelEvery) == 0;
      prev = op.topology;
    }
    op.rhs = os.next_below(op.panel ? kPanelPool : kRhsPool);
    in.ops.push_back(op);
  }
  for (std::size_t i = 0; i < kWarmupOps; ++i)
    in.warmup.push_back({i % kInitialTopologies, false, i % kRhsPool});
  return in;
}

service::Request make_request(const Inputs& in, const Op& op,
                              std::uint64_t seed) {
  service::Request req;
  req.type = op.panel ? service::RequestType::kSolveMany
                      : service::RequestType::kSolve;
  req.seed = seed;
  req.engine = "auto";
  req.eps = kEps;
  req.graph = in.topologies[op.topology];
  if (op.panel) {
    req.panel = in.panels[op.rhs];
  } else {
    req.b = in.rhs[op.rhs];
  }
  return req;
}

// Status, engine and residual of every column of a reply.
bool reply_ok(const common::Context& ctx, const Inputs& in, const Op& op,
              const service::Reply& reply, double* worst) {
  if (reply.status != service::ReplyStatus::kOk ||
      reply.stats.engine != "exact-sparse")
    return false;
  const graph::Graph& g = in.topologies[op.topology];
  if (!op.panel) {
    if (reply.x.size() != kN) return false;
    const double res = relative_residual(ctx, g, in.rhs[op.rhs], reply.x);
    *worst = std::max(*worst, res);
    return res <= kResidualBound;
  }
  const linalg::DenseMatrix& b = in.panels[op.rhs];
  if (reply.panel.rows() != kN || reply.panel.cols() != kPanelWidth)
    return false;
  for (std::size_t c = 0; c < kPanelWidth; ++c) {
    const double res =
        relative_residual(ctx, g, b.column(c), reply.panel.column(c));
    *worst = std::max(*worst, res);
    if (!(res <= kResidualBound)) return false;
  }
  return true;
}

std::uint64_t answer_hash(const service::Reply& reply) {
  return reply.panel.rows() ? fnv1a(reply.panel.row_data(0),
                                    reply.panel.rows() * reply.panel.cols() *
                                        sizeof(double))
                            : fnv1a_vec(reply.x);
}

service::ServiceOptions service_options() {
  service::ServiceOptions o;
  o.workers = kWorkers;
  o.runtime_threads = 1;
  o.queue_capacity = 64;
  o.factor_cache_bytes = kCacheBytes;
  return o;
}

// Service construction plus one cold solve per initial topology.
std::unique_ptr<service::SolverService> set_up(const Inputs& in,
                                               std::uint64_t seed,
                                               Result& r) {
  auto svc = std::make_unique<service::SolverService>(service_options());
  std::vector<std::shared_ptr<service::PendingReply>> pending;
  for (std::size_t t = 0; t < kInitialTopologies; ++t) {
    auto sub = svc->submit(make_request(in, {t, false, t % kRhsPool}, seed));
    r.check(sub.accepted());
    if (sub.accepted()) pending.push_back(sub.reply);
  }
  for (auto& p : pending)
    r.check(p->wait().status == service::ReplyStatus::kOk);
  return svc;
}

struct Stream {
  double wall_s = 0.0;
  std::vector<double> latency;
  std::vector<double> serve;
  std::vector<std::uint64_t> payload;  // payload-bytes hash per op
  std::vector<std::uint64_t> answer;   // solution-bytes hash per op
  std::vector<std::string> sampled;    // payload bytes, "" if not sampled
  service::ServiceStats before, after;
  double worst_residual = 0.0;
};

// The ops whose replies are compared with a direct facade call: the first
// kSampledPerTopology ops on the first initial and the first new topology.
std::vector<bool> sampled_ops(const Inputs& in) {
  std::vector<bool> out(in.ops.size(), false);
  std::vector<std::size_t> taken(in.topologies.size(), 0);
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const std::size_t t = in.ops[i].topology;
    if ((t == 0 || t == kInitialTopologies) && taken[t] < kSampledPerTopology) {
      ++taken[t];
      out[i] = true;
    }
  }
  return out;
}

// Runs the op list through svc as a closed loop of kWindow clients, each
// submitting its next request once its previous reply is ready, so kWindow
// requests are in flight. A client blocks on its reply, which times the
// reply from submit to the moment the service fulfils it; the client then
// checks it.
Stream run_stream(service::SolverService& svc, const Inputs& in,
                  std::uint64_t seed, Result& r) {
  Stream out;
  const std::size_t n = in.ops.size();
  out.latency.assign(n, 0.0);
  out.serve.assign(n, 0.0);
  out.payload.assign(n, 0);
  out.answer.assign(n, 0);
  out.sampled.assign(n, std::string());
  const std::vector<bool> sample = sampled_ops(in);
  std::vector<char> ok(n, 0);  // a rejected or failed op stays 0
  std::vector<double> worst(kWindow, 0.0);
  std::atomic<std::size_t> next{0};

  const auto client = [&](std::size_t c) {
    RuntimeOptions check_opts;
    check_opts.threads = 1;
    Runtime check_rt(check_opts);
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        const Op& op = in.ops[i];
        service::Request req = make_request(in, op, seed);
        const auto t = Clock::now();
        auto sub = svc.submit(std::move(req));
        if (!sub.accepted()) continue;
        const service::Reply& reply = sub.reply->wait();
        out.latency[i] = seconds_since(t);
        out.serve[i] = reply.stats.wall_seconds;
        const std::string bytes = service::reply_payload_bytes(reply);
        out.payload[i] = fnv1a(bytes.data(), bytes.size());
        out.answer[i] = answer_hash(reply);
        if (sample[i]) out.sampled[i] = bytes;
        ok[i] = reply_ok(check_rt.context(), in, op, reply, &worst[c]);
      } catch (const std::exception&) {
        ok[i] = 0;
      }
    }
  };
  out.before = svc.stats();
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kWindow; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  out.wall_s = seconds_since(start);
  out.after = svc.stats();
  for (char k : ok) r.check(k != 0);
  for (double w : worst) out.worst_residual = std::max(out.worst_residual, w);
  return out;
}

// Replays the sampled ops through the direct facade and compares payload
// bytes with the service's replies.
bool sampled_replies_match(const Inputs& in, const Stream& s,
                           std::uint64_t seed) {
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = seed;
  ropts.factor_cache_bytes = kCacheBytes;
  Runtime rt(ropts);
  LaplacianSolveOptions lopt;
  lopt.eps = kEps;
  lopt.engine = "auto";
  const std::vector<bool> sample = sampled_ops(in);
  std::size_t compared = 0;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    if (!sample[i]) continue;
    const Op& op = in.ops[i];
    const graph::Graph& g = in.topologies[op.topology];
    service::Reply ref;
    ref.status = service::ReplyStatus::kOk;
    if (op.panel) {
      ref.type = service::RequestType::kSolveMany;
      ref.panel = rt.solve_laplacian_many(g, in.panels[op.rhs], lopt).x;
    } else {
      ref.type = service::RequestType::kSolve;
      ref.x = rt.solve_laplacian(g, in.rhs[op.rhs], lopt).x;
    }
    if (service::reply_payload_bytes(ref) != s.sampled[i]) return false;
    ++compared;
  }
  return compared > 0;
}

// Counter checks of one stream against its service's statistics.
void check_accounting(const Inputs& in, const Stream& s, Result& r) {
  const auto& c = s.after.cache;
  if (c.misses != in.topologies.size() || c.evictions != 0 ||
      s.after.rejected_queue_full != 0 || s.after.failed != 0) {
    r.correct = false;
  }
}

void layer_replay(const Inputs& in, const Stream& base, const Stream& traced,
                  std::uint64_t seed, Result& r) {
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = seed;
  Runtime rt(ropts);
  const common::Context ctx = rt.context();
  laplacian::EngineOptions eopt;
  eopt.eps = kEps;

  std::vector<double> factor_s, tail_share, fill, apply_s, many_s;
  for (std::size_t t = 0; t < in.topologies.size(); ++t) {
    const graph::Graph& g = in.topologies[t];
    auto start = Clock::now();
    const auto prepared = laplacian::prepare_exact(
        ctx, g, linalg::FactorMode::kForceSparse, "exact-sparse");
    factor_s.push_back(seconds_since(start));

    // The ordering of the Laplacian grounded on its last vertex.
    const auto grounded =
        linalg::CscSymmetricMatrix::from_symmetric_csr(graph::laplacian(g), 1);
    const linalg::Ordering ord = linalg::amd_order(grounded);
    tail_share.push_back(static_cast<double>(grounded.dim() - ord.t) /
                         static_cast<double>(grounded.dim()));
    fill.push_back(
        static_cast<double>(linalg::ordering_fill_nnz(grounded, ord)));

    // Warm applies of the first single and the first panel of this
    // topology in the op list; their bytes must equal the service's.
    bool single_done = false, panel_done = false;
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      if (op.topology != t || (op.panel ? panel_done : single_done)) continue;
      core::RunStats st;
      start = Clock::now();
      if (op.panel) {
        const auto x = prepared->apply_many(ctx, in.panels[op.rhs], eopt, &st);
        many_s.push_back(seconds_since(start) / kPanelWidth);
        r.check(fnv1a(x.row_data(0), x.rows() * x.cols() * sizeof(double)) ==
                base.answer[i]);
        panel_done = true;
      } else {
        const auto x = prepared->apply(ctx, in.rhs[op.rhs], eopt, &st);
        apply_s.push_back(seconds_since(start));
        r.check(fnv1a_vec(x) == base.answer[i]);
        single_done = true;
      }
    }
  }

  // Per-request spans of the traced stream.
  std::vector<double> wait;
  std::size_t singles = 0, panels = 0;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    wait.push_back(std::max(0.0, traced.latency[i] - traced.serve[i]));
    (in.ops[i].panel ? panels : singles) += 1;
  }
  const LatencySummary wait_lat = summarize_latency(wait);
  const auto d = [&](std::size_t a, std::size_t b) {
    return static_cast<double>(a - b);
  };
  const auto& b = traced.before;
  const auto& a = traced.after;
  const double hits = d(a.totals.cache_hits, b.totals.cache_hits);
  const double misses = d(a.totals.cache_misses, b.totals.cache_misses);
  const double serve_wall = a.totals.wall_seconds - b.totals.wall_seconds;
  const double modeled = misses * mean(factor_s) +
                         static_cast<double>(singles) * mean(apply_s) +
                         static_cast<double>(panels * kPanelWidth) *
                             mean(many_s);

  r.metric("trace.overhead_ratio", base.wall_s / traced.wall_s, "ratio");
  r.metric("trace.attributed_share", modeled / serve_wall, "ratio");
  r.metric("service.queue_wait_p50_s", wait_lat.p50, "s");
  r.metric("service.queue_wait_tail_s", wait_lat.tail, "s");
  r.metric("service.serve_p50_s", median(traced.serve), "s");
  r.metric("service.warm_admit_ratio",
           d(a.warm_admissions, b.warm_admissions) / d(a.accepted, b.accepted),
           "ratio");
  r.metric("service.coalesced_ratio",
           d(a.coalesced_requests, b.coalesced_requests) /
               d(a.served, b.served),
           "ratio");
  r.metric("service.queue_high_water", static_cast<double>(a.queue_high_water),
           "count");
  r.metric("core.cache_hit_ratio", hits / (hits + misses), "ratio");
  r.metric("core.prepares", static_cast<double>(a.cache.misses), "count");
  r.metric("linalg.sparse_factor_s", mean(factor_s), "s");
  r.metric("linalg.dense_tail_share", mean(tail_share), "ratio");
  r.metric("linalg.fill_nnz", mean(fill), "count");
  r.metric("laplacian.apply_s", mean(apply_s), "s");
  r.metric("laplacian.apply_many_s_per_rhs", mean(many_s), "s");
}

}  // namespace

Result run_service_stream(const Args& args) {
  Result r;
  const rng::Stream root(args.seed);
  const std::size_t n_ops = op_count(
      kOpsPerSecond, args.trace ? args.seconds / 2.0 : args.seconds, kMinOps);
  const Inputs in = make_inputs(root, n_ops);
  const std::uint64_t seed = args.seed;

  RuntimeOptions check_opts;
  check_opts.threads = 1;
  Runtime check_rt(check_opts);
  const common::Context check_ctx = check_rt.context();

  std::unique_ptr<service::SolverService> svc;
  std::vector<double> setup;
  const auto start_service = [&] {
    svc.reset();
    const auto t = Clock::now();
    svc = set_up(in, seed, r);
    setup.push_back(seconds_since(t));
  };
  const auto warm_up = [&] {
    double ignored = 0.0;
    for (const Op& op : in.warmup) {
      auto sub = svc->submit(make_request(in, op, seed));
      r.check(sub.accepted() &&
              reply_ok(check_ctx, in, op, sub.reply->wait(), &ignored));
    }
  };
  for (std::size_t rep = 0; rep < kSetupReps / 2; ++rep) start_service();
  warm_up();

  const double ref_before = reference_loop_s();
  const Stream base = run_stream(*svc, in, seed, r);
  const double ref_after = reference_loop_s();
  const double rss_mb = peak_rss_mb();
  add_reference_diagnostics(r, ref_before, ref_after);
  check_accounting(in, base, r);
  r.check(sampled_replies_match(in, base, seed));
  r.diag("distinct_topologies", static_cast<double>(in.topologies.size()));
  r.diag("cache_resident_mb",
         static_cast<double>(base.after.cache.resident_bytes) /
             (1024.0 * 1024.0));
  const auto ratio = [](std::size_t a, std::size_t b, std::size_t c,
                        std::size_t d) {
    return static_cast<double>(a - b) / static_cast<double>(c - d);
  };
  r.diag("coalesced_ratio",
         ratio(base.after.coalesced_requests, base.before.coalesced_requests,
               base.after.served, base.before.served));
  r.diag("warm_admit_ratio",
         ratio(base.after.warm_admissions, base.before.warm_admissions,
               base.after.accepted, base.before.accepted));
  r.diag("worst_relative_residual", base.worst_residual);

  // Rounds come from ServiceStats::totals, where a coalesced panel's
  // stats count once; summing replies would count them once per single.
  const double rounds_per_op =
      static_cast<double>(base.after.totals.rounds -
                          base.before.totals.rounds) /
      static_cast<double>(in.ops.size());
  r.diag("rounds_per_op", rounds_per_op);
  if (args.trace) {
    r.metric("bcc.rounds_per_op", rounds_per_op, "count");
    start_service();
    warm_up();
    const Stream traced = run_stream(*svc, in, seed, r);
    check_accounting(in, traced, r);
    r.check(traced.payload == base.payload);
    svc.reset();
    layer_replay(in, base, traced, seed, r);
    return r;
  }
  while (setup.size() < kSetupReps) start_service();
  svc.reset();
  add_end_to_end(r, base.wall_s, base.latency, setup, rss_mb);
  return r;
}

}  // namespace perfbench
