// service::SolverService (service/solver_service.h): the request loop
// multiplexing worker Runtimes over one shared FactorCache.
//
// The deterministic halves run the service caller-driven (workers = 0, so
// requests are served only by explicit drain() calls): backpressure with an
// exact queue capacity, warm-topology queue-jumping, cold-oversized
// admission, same-fingerprint coalescing and its bytes-neutrality. The
// threaded halves (workers >= 1; this suite runs in CI's TSan rerun lane)
// pin the determinism contract — reply bytes equal the direct Runtime
// facade's at any worker count — plus graceful shutdown draining every
// accepted request.
#include "service/solver_service.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/factor_cache.h"
#include "core/runtime.h"
#include "graph/generators.h"
#include "service/request.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

using linalg::Vec;
using service::Admission;
using service::PendingReply;
using service::ReplyStatus;
using service::Request;
using service::RequestType;
using service::ServiceOptions;
using service::SolverService;
using service::Submission;

::testing::AssertionResult BitwiseEqual(const Vec& a, const Vec& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "bytes differ";
  return ::testing::AssertionSuccess();
}

graph::Graph service_test_graph(std::uint64_t seed = 11) {
  rng::Stream stream(seed);
  return graph::random_regularish(48, 4, 8, stream);
}

Vec gaussian_rhs(std::size_t n, std::uint64_t seed) {
  rng::Stream stream(seed);
  Vec b(n);
  for (auto& v : b) v = stream.next_gaussian();
  return b;
}

// The canonical Laplacian request of this suite: the paper pipeline's
// engine at bench-scale sparsifier options, served under seed 19.
Request solve_request(const graph::Graph& g, std::uint64_t rhs_seed,
                      std::uint64_t seed = 19) {
  Request req;
  req.type = RequestType::kSolve;
  req.seed = seed;
  req.engine = "sparsified-chebyshev";
  req.sparsify = testsupport::small_sparsify_options();
  req.graph = g;
  req.b = gaussian_rhs(g.num_vertices(), rhs_seed);
  return req;
}

LaplacianSolveOptions facade_options() {
  LaplacianSolveOptions opt;
  opt.engine = "sparsified-chebyshev";
  opt.sparsify = testsupport::small_sparsify_options();
  return opt;
}

ServiceOptions caller_driven(std::size_t queue_capacity = 64) {
  ServiceOptions opts;
  opts.workers = 0;
  opts.queue_capacity = queue_capacity;
  return opts;
}

// ---- caller-driven (deterministic) half -------------------------------

TEST(SolverService, BackpressureRejectsAtCapacityAndRecovers) {
  const graph::Graph g = service_test_graph();
  SolverService service(caller_driven(/*queue_capacity=*/2));

  Submission a = service.submit(solve_request(g, 1));
  Submission b = service.submit(solve_request(g, 2));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  EXPECT_EQ(service.queue_depth(), 2u);

  // The third submission hits the bound: an explicit rejection with a
  // reason, never a silent drop.
  Submission c = service.submit(solve_request(g, 3));
  EXPECT_FALSE(c.accepted());
  EXPECT_EQ(c.admission, Admission::kRejectedQueueFull);
  EXPECT_STREQ(c.reason(), "queue-full");

  // Draining makes room; the resubmission is admitted.
  EXPECT_EQ(service.drain(), 2u);
  Submission retry = service.submit(solve_request(g, 3));
  ASSERT_TRUE(retry.accepted());
  EXPECT_EQ(service.drain(), 1u);
  EXPECT_EQ(retry.reply->wait().status, ReplyStatus::kOk);

  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.queue_high_water, 2u);
}

TEST(SolverService, WarmTopologyJumpsTheQueue) {
  const graph::Graph warm_g = service_test_graph(11);
  const graph::Graph cold_g = service_test_graph(12);
  SolverService service(caller_driven());

  // Warm the cache on warm_g's topology.
  Submission first = service.submit(solve_request(warm_g, 1));
  ASSERT_TRUE(first.accepted());
  EXPECT_EQ(first.admission, Admission::kAccepted);
  service.drain();

  // A cold request queued ahead of a warm one is overtaken: the warm
  // request's artifact is resident, so its serve is apply-only.
  Submission cold = service.submit(solve_request(cold_g, 2));
  Submission warm = service.submit(solve_request(warm_g, 3));
  ASSERT_TRUE(cold.accepted());
  ASSERT_TRUE(warm.accepted());
  EXPECT_EQ(warm.admission, Admission::kAcceptedWarm);
  EXPECT_STREQ(warm.reason(), "accepted-warm");

  EXPECT_EQ(service.drain(1), 1u);
  EXPECT_TRUE(warm.reply->ready());
  EXPECT_FALSE(cold.reply->ready());

  service.drain();
  const auto& warm_reply = warm.reply->wait();
  EXPECT_EQ(warm_reply.status, ReplyStatus::kOk);
  EXPECT_GE(warm_reply.stats.cache_hits, 1u);
  EXPECT_EQ(warm_reply.stats.sparsify_count, 0u);
  EXPECT_EQ(service.stats().warm_admissions, 1u);
}

TEST(SolverService, ColdOversizedIsRejectedUntilTheTopologyIsWarm) {
  const graph::Graph g = service_test_graph();
  auto shared = std::make_shared<core::FactorCache>(64u << 20);
  ServiceOptions opts = caller_driven();
  opts.factor_cache = shared;
  opts.max_cold_vertices = 10;  // every cold 48-vertex prepare is oversized
  SolverService service(opts);

  Submission cold = service.submit(solve_request(g, 1));
  EXPECT_FALSE(cold.accepted());
  EXPECT_EQ(cold.admission, Admission::kRejectedColdOversized);
  EXPECT_STREQ(cold.reason(), "cold-oversized");

  // Warm the shared cache from a Runtime with the service's seed and
  // chunking policy — the admission key must mirror the facade's cache
  // key exactly, so the artifact this Runtime prepares is the one the
  // service now finds resident.
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 19;
  ropts.factor_cache = shared;
  Runtime rt(ropts);
  const auto direct = rt.solve_laplacian(g, gaussian_rhs(48, 1),
                                         facade_options());
  ASSERT_TRUE(direct.usable);

  Submission warm = service.submit(solve_request(g, 1));
  ASSERT_TRUE(warm.accepted());
  EXPECT_EQ(warm.admission, Admission::kAcceptedWarm);
  service.drain();
  const auto& reply = warm.reply->wait();
  EXPECT_EQ(reply.status, ReplyStatus::kOk);
  EXPECT_GE(reply.stats.cache_hits, 1u);
  EXPECT_EQ(reply.stats.sparsify_count, 0u);
  EXPECT_TRUE(BitwiseEqual(reply.x, direct.x));
  EXPECT_EQ(service.stats().rejected_cold_oversized, 1u);
}

TEST(SolverService, CoalescesSameFingerprintSinglesBytesNeutrally) {
  const graph::Graph g = service_test_graph();
  SolverService service(caller_driven());

  // Three coalescible singles plus one under a different seed (a different
  // artifact — never batched with the others).
  std::vector<Submission> subs;
  for (std::uint64_t rhs = 1; rhs <= 3; ++rhs) {
    subs.push_back(service.submit(solve_request(g, rhs)));
    ASSERT_TRUE(subs.back().accepted());
  }
  Submission other = service.submit(solve_request(g, 4, /*seed=*/20));
  ASSERT_TRUE(other.accepted());

  // One drain step serves the whole coalesced panel.
  EXPECT_EQ(service.drain(1), 3u);
  service.drain();

  // Reference bytes: the direct facade, uncached, single-RHS.
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 19;
  Runtime rt(ropts);
  for (std::uint64_t rhs = 1; rhs <= 3; ++rhs) {
    const auto& reply = subs[rhs - 1].reply->wait();
    ASSERT_EQ(reply.status, ReplyStatus::kOk);
    EXPECT_TRUE(reply.coalesced);
    EXPECT_EQ(reply.panel_width, 3u);
    const auto direct =
        rt.solve_laplacian(g, gaussian_rhs(48, rhs), facade_options());
    EXPECT_TRUE(BitwiseEqual(reply.x, direct.x)) << "rhs " << rhs;
  }
  const auto& solo = other.reply->wait();
  EXPECT_EQ(solo.status, ReplyStatus::kOk);
  EXPECT_FALSE(solo.coalesced);

  const auto stats = service.stats();
  EXPECT_EQ(stats.coalesced_panels, 1u);
  EXPECT_EQ(stats.coalesced_requests, 3u);
  EXPECT_EQ(stats.served, 4u);
}

TEST(SolverService, MaxCoalesceOneDisablesBatching) {
  const graph::Graph g = service_test_graph();
  ServiceOptions opts = caller_driven();
  opts.max_coalesce = 1;
  SolverService service(opts);

  Submission a = service.submit(solve_request(g, 1));
  Submission b = service.submit(solve_request(g, 2));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  EXPECT_EQ(service.drain(1), 1u);
  EXPECT_FALSE(b.reply->ready());
  service.drain();
  EXPECT_FALSE(a.reply->wait().coalesced);
  EXPECT_EQ(service.stats().coalesced_panels, 0u);
}

TEST(SolverService, MisSizedSingleIsServedAloneAndFails) {
  // A single whose b does not have the graph's vertex count must never
  // ride a panel: it fails alone with the facade's message, and the
  // well-sized single sharing its cache key keeps its solo bytes. Both
  // queue orders are checked, so the mis-sized request is once the
  // panel head and once a candidate.
  rng::Stream stream(5);
  const graph::Graph g = graph::random_regularish(64, 4, 8, stream);
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 19;
  Runtime rt(ropts);
  const auto direct =
      rt.solve_laplacian(g, gaussian_rhs(64, 1), facade_options());
  ASSERT_TRUE(direct.usable);

  for (const std::size_t rows : {std::size_t{63}, std::size_t{65}}) {
    std::string facade_error;
    try {
      rt.solve_laplacian(g, gaussian_rhs(rows, 2), facade_options());
    } catch (const std::invalid_argument& e) {
      facade_error = e.what();
    }
    ASSERT_FALSE(facade_error.empty()) << "rows " << rows;

    for (const bool bad_first : {true, false}) {
      SolverService service(caller_driven());
      Request bad_req = solve_request(g, 2);
      bad_req.b = gaussian_rhs(rows, 2);
      Submission bad, good;
      if (bad_first) {
        bad = service.submit(std::move(bad_req));
        good = service.submit(solve_request(g, 1));
      } else {
        good = service.submit(solve_request(g, 1));
        bad = service.submit(std::move(bad_req));
      }
      ASSERT_TRUE(bad.accepted());
      ASSERT_TRUE(good.accepted());
      EXPECT_EQ(service.drain(), 2u);

      const auto& bad_reply = bad.reply->wait();
      EXPECT_EQ(bad_reply.status, ReplyStatus::kFailed) << "rows " << rows;
      EXPECT_EQ(bad_reply.error, facade_error);
      EXPECT_FALSE(bad_reply.coalesced);
      const auto& good_reply = good.reply->wait();
      ASSERT_EQ(good_reply.status, ReplyStatus::kOk);
      EXPECT_FALSE(good_reply.coalesced);
      EXPECT_TRUE(BitwiseEqual(good_reply.x, direct.x)) << "rows " << rows;

      const auto stats = service.stats();
      EXPECT_EQ(stats.coalesced_panels, 0u);
      EXPECT_EQ(stats.failed, 1u);
    }
  }
}

TEST(SolverService, NonFiniteSingleIsServedAloneAndFails) {
  // A single with a NaN right-hand-side entry must never ride a panel: the
  // facade rejects it, and inside a panel that throw would fail every
  // coalesced request. Queued between two good singles sharing its cache
  // key, it fails alone while the good pair coalesces with solo bytes.
  rng::Stream stream(5);
  const graph::Graph g = graph::random_regularish(64, 4, 8, stream);
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 19;
  Runtime rt(ropts);

  Request bad_req = solve_request(g, 2);
  bad_req.b[5] = std::numeric_limits<double>::quiet_NaN();
  std::string facade_error;
  try {
    rt.solve_laplacian(g, bad_req.b, facade_options());
  } catch (const std::invalid_argument& e) {
    facade_error = e.what();
  }
  ASSERT_FALSE(facade_error.empty());

  SolverService service(caller_driven());
  Submission first = service.submit(solve_request(g, 1));
  Submission bad = service.submit(std::move(bad_req));
  Submission last = service.submit(solve_request(g, 3));
  ASSERT_TRUE(first.accepted());
  ASSERT_TRUE(bad.accepted());
  ASSERT_TRUE(last.accepted());
  EXPECT_EQ(service.drain(), 3u);

  const auto& bad_reply = bad.reply->wait();
  EXPECT_EQ(bad_reply.status, ReplyStatus::kFailed);
  EXPECT_EQ(bad_reply.error, facade_error);
  EXPECT_FALSE(bad_reply.coalesced);
  for (Submission* sub : {&first, &last}) {
    const std::uint64_t rhs = sub == &first ? 1 : 3;
    const auto& reply = sub->reply->wait();
    ASSERT_EQ(reply.status, ReplyStatus::kOk) << "rhs " << rhs;
    EXPECT_TRUE(reply.coalesced);
    EXPECT_EQ(reply.panel_width, 2u);
    const auto direct =
        rt.solve_laplacian(g, gaussian_rhs(64, rhs), facade_options());
    EXPECT_TRUE(BitwiseEqual(reply.x, direct.x)) << "rhs " << rhs;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.coalesced_panels, 1u);
  EXPECT_EQ(stats.coalesced_requests, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(SolverService, NegativeWeightSingleIsServedAloneAndFails) {
  // A single whose graph carries a negative edge weight fails with the
  // facade's message. Two such singles on one graph share a cache key, but
  // queued between two good singles each still fails alone, and the good
  // pair still coalesces.
  rng::Stream stream(5);
  const graph::Graph g = graph::random_regularish(64, 4, 8, stream);
  graph::Graph negative = g;
  negative.set_weight(9, -1.0);
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 19;
  Runtime rt(ropts);

  Request bad_req = solve_request(negative, 2);
  std::string facade_error;
  try {
    rt.solve_laplacian(negative, bad_req.b, facade_options());
  } catch (const std::invalid_argument& e) {
    facade_error = e.what();
  }
  ASSERT_NE(facade_error.find("edge 9 has a negative weight"),
            std::string::npos)
      << facade_error;

  SolverService service(caller_driven());
  Submission first = service.submit(solve_request(g, 1));
  Submission bad = service.submit(std::move(bad_req));
  Submission bad_twin = service.submit(solve_request(negative, 4));
  Submission last = service.submit(solve_request(g, 3));
  ASSERT_TRUE(first.accepted());
  ASSERT_TRUE(bad.accepted());
  ASSERT_TRUE(bad_twin.accepted());
  ASSERT_TRUE(last.accepted());
  EXPECT_EQ(service.drain(), 4u);

  for (Submission* sub : {&bad, &bad_twin}) {
    const auto& reply = sub->reply->wait();
    EXPECT_EQ(reply.status, ReplyStatus::kFailed);
    EXPECT_EQ(reply.error, facade_error);
    EXPECT_FALSE(reply.coalesced);
  }
  for (Submission* sub : {&first, &last}) {
    const auto& reply = sub->reply->wait();
    ASSERT_EQ(reply.status, ReplyStatus::kOk);
    EXPECT_TRUE(reply.coalesced);
    EXPECT_EQ(reply.panel_width, 2u);
  }
  EXPECT_EQ(service.stats().failed, 2u);
}

TEST(SolverService, BadSinkMcmfFailsAloneAndTheNextRequestIsServed) {
  // A min-cost-flow request whose sink is not a vertex gets kFailed with
  // the solver's message; the worker goes on to serve the next request.
  graph::Digraph net(4);
  net.add_arc(0, 1, 2, 1);
  net.add_arc(1, 3, 2, 1);
  net.add_arc(0, 2, 2, 4);
  net.add_arc(2, 3, 2, 4);
  Request bad;
  bad.type = RequestType::kMcmf;
  bad.seed = 19;
  bad.network = net;
  bad.source = 0;
  bad.sink = 9;
  Request good = bad;
  good.sink = 3;

  SolverService service(caller_driven());
  Submission bad_sub = service.submit(std::move(bad));
  Submission good_sub = service.submit(std::move(good));
  ASSERT_TRUE(bad_sub.accepted());
  ASSERT_TRUE(good_sub.accepted());
  EXPECT_EQ(service.drain(), 2u);

  const auto& bad_reply = bad_sub.reply->wait();
  EXPECT_EQ(bad_reply.status, ReplyStatus::kFailed);
  EXPECT_NE(bad_reply.error.find("sink 9"), std::string::npos)
      << bad_reply.error;
  const auto& good_reply = good_sub.reply->wait();
  ASSERT_EQ(good_reply.status, ReplyStatus::kOk);
  EXPECT_EQ(good_reply.mcmf.flow.value, 4);
  EXPECT_EQ(good_reply.mcmf.flow.cost, 20);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(SolverService, UnknownEngineKeyThrowsAtTheSubmitBoundary) {
  SolverService service(caller_driven());
  Request req = solve_request(service_test_graph(), 1);
  req.engine = "no-such-engine";
  EXPECT_THROW(service.submit(std::move(req)), std::invalid_argument);
}

TEST(SolverService, AggregatesRunStatsAndCacheSnapshot) {
  const graph::Graph g = service_test_graph();
  SolverService service(caller_driven());
  Submission a = service.submit(solve_request(g, 1));
  Submission b = service.submit(solve_request(g, 2, /*seed=*/20));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  service.drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.failed, 0u);
  // Two distinct (fingerprint, seed) artifacts were prepared and cached.
  EXPECT_EQ(stats.totals.cache_misses, 2u);
  EXPECT_EQ(stats.totals.sparsify_count, 2u);
  EXPECT_GT(stats.totals.iterations, 0u);
  EXPECT_GT(stats.totals.wall_seconds, 0.0);
  EXPECT_EQ(stats.cache.entries, 2u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_GT(stats.cache.resident_bytes, 0u);
  EXPECT_LE(stats.cache.resident_bytes, stats.cache.max_bytes);
}

// ---- threaded half (the TSan targets) ---------------------------------

TEST(SolverService, RepliesMatchTheFacadeBytesAtFourWorkers) {
  const graph::Graph g = service_test_graph();
  const std::size_t n = g.num_vertices();
  linalg::DenseMatrix panel(n, 2);
  panel.set_column(0, gaussian_rhs(n, 21));
  panel.set_column(1, gaussian_rhs(n, 22));

  ServiceOptions opts;
  opts.workers = 4;
  SolverService service(opts);

  std::vector<Submission> singles;
  for (std::uint64_t rhs = 1; rhs <= 4; ++rhs) {
    singles.push_back(service.submit(solve_request(g, rhs)));
    ASSERT_TRUE(singles.back().accepted());
  }
  Request many;
  many.type = RequestType::kSolveMany;
  many.seed = 19;
  many.engine = "sparsified-chebyshev";
  many.sparsify = testsupport::small_sparsify_options();
  many.graph = g;
  many.panel = panel;
  Submission panel_sub = service.submit(std::move(many));
  ASSERT_TRUE(panel_sub.accepted());

  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 19;
  Runtime rt(ropts);
  for (std::uint64_t rhs = 1; rhs <= 4; ++rhs) {
    const auto& reply = singles[rhs - 1].reply->wait();
    ASSERT_EQ(reply.status, ReplyStatus::kOk);
    const auto direct =
        rt.solve_laplacian(g, gaussian_rhs(n, rhs), facade_options());
    EXPECT_TRUE(BitwiseEqual(reply.x, direct.x)) << "rhs " << rhs;
  }
  const auto& panel_reply = panel_sub.reply->wait();
  ASSERT_EQ(panel_reply.status, ReplyStatus::kOk);
  const auto direct_many = rt.solve_laplacian_many(g, panel, facade_options());
  ASSERT_TRUE(direct_many.usable);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_TRUE(
        BitwiseEqual(panel_reply.panel.column(j), direct_many.x.column(j)));
  }
  service.shutdown();
  EXPECT_EQ(service.stats().served, 5u);
}

TEST(SolverService, SparsifyAndMcmfRideTheService) {
  const graph::Graph g = service_test_graph();
  ServiceOptions opts;
  opts.workers = 2;
  SolverService service(opts);

  Request sp;
  sp.type = RequestType::kSparsify;
  sp.seed = 19;
  sp.sparsify = testsupport::small_sparsify_options();
  sp.graph = g;
  Submission sp_sub = service.submit(std::move(sp));
  ASSERT_TRUE(sp_sub.accepted());

  graph::Digraph net(4);
  net.add_arc(0, 1, 2, 1);
  net.add_arc(1, 3, 2, 1);
  net.add_arc(0, 2, 2, 4);
  net.add_arc(2, 3, 2, 4);
  Request mf;
  mf.type = RequestType::kMcmf;
  mf.seed = 19;
  mf.network = net;
  mf.source = 0;
  mf.sink = 3;
  Submission mf_sub = service.submit(std::move(mf));
  ASSERT_TRUE(mf_sub.accepted());

  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 19;
  Runtime rt(ropts);

  const auto& sp_reply = sp_sub.reply->wait();
  ASSERT_EQ(sp_reply.status, ReplyStatus::kOk);
  const auto direct_sp =
      rt.sparsify(g, testsupport::small_sparsify_options());
  const auto& got = sp_reply.sparsify.sparsifier;
  const auto& want = direct_sp.result.sparsifier;
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (std::size_t e = 0; e < got.num_edges(); ++e) {
    EXPECT_EQ(got.edge(e).u, want.edge(e).u);
    EXPECT_EQ(got.edge(e).v, want.edge(e).v);
    EXPECT_EQ(got.edge(e).weight, want.edge(e).weight);
  }

  const auto& mf_reply = mf_sub.reply->wait();
  ASSERT_EQ(mf_reply.status, ReplyStatus::kOk);
  const auto direct_mf = rt.min_cost_max_flow(net, 0, 3, {});
  ASSERT_TRUE(direct_mf.result.exact);
  EXPECT_EQ(mf_reply.mcmf.flow.value, direct_mf.result.flow.value);
  EXPECT_EQ(mf_reply.mcmf.flow.cost, direct_mf.result.flow.cost);
  EXPECT_EQ(mf_reply.mcmf.flow.flow, direct_mf.result.flow.flow);
}

TEST(FactorCacheDedup, ConcurrentColdPreparesRunOnePrepare) {
  // Prepare-in-flight dedup (core/factor_cache.h): N Runtimes sharing one
  // cache race the same cold key; exactly one runs the prepare (one cache
  // miss, one sparsify), the rest block on the in-flight registration and
  // adopt the published artifact as hits — with bitwise-identical replies.
  const graph::Graph g = service_test_graph();
  const Vec b = gaussian_rhs(g.num_vertices(), 31);
  auto shared = std::make_shared<core::FactorCache>(64u << 20);

  constexpr std::size_t kThreads = 4;
  std::vector<std::unique_ptr<Runtime>> runtimes;
  for (std::size_t i = 0; i < kThreads; ++i) {
    RuntimeOptions ropts;
    ropts.threads = 1;
    ropts.seed = 19;
    ropts.factor_cache = shared;
    runtimes.push_back(std::make_unique<Runtime>(ropts));
  }

  // Start barrier so the solves genuinely overlap — the point is the
  // join path, not N sequential warm hits.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::vector<LaplacianRun> runs(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++arrived == kThreads) cv.notify_all();
        cv.wait(lock, [&] { return arrived == kThreads; });
      }
      runs[i] = runtimes[i]->solve_laplacian(g, b, facade_options());
    });
  }
  for (auto& t : threads) t.join();

  std::size_t total_sparsifies = 0, total_hits = 0, total_misses = 0;
  for (std::size_t i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(runs[i].usable) << "thread " << i;
    total_sparsifies += runs[i].stats.sparsify_count;
    total_hits += runs[i].stats.cache_hits;
    total_misses += runs[i].stats.cache_misses;
    EXPECT_TRUE(BitwiseEqual(runs[i].x, runs[0].x)) << "thread " << i;
  }
  EXPECT_EQ(total_misses, 1u);
  EXPECT_EQ(total_hits, kThreads - 1);
  EXPECT_EQ(total_sparsifies, 1u);
  EXPECT_EQ(shared->stats().misses, 1u);
  EXPECT_EQ(shared->stats().entries, 1u);
}

TEST(FactorCacheDedup, FourWorkerColdBurstPreparesOnce) {
  // The bench_service regression this closes: a 4-worker cold burst on
  // one topology used to run four redundant prepares (coalescing only
  // merges requests still queued — once each worker holds one, they raced
  // the full sparsify+factor). max_coalesce = 1 forces that shape
  // deterministically; dedup must reduce it to one prepare.
  const graph::Graph g = service_test_graph();
  ServiceOptions opts;
  opts.workers = 4;
  opts.max_coalesce = 1;
  SolverService service(opts);

  std::vector<Submission> subs;
  for (std::uint64_t rhs = 1; rhs <= 4; ++rhs) {
    subs.push_back(service.submit(solve_request(g, rhs)));
    ASSERT_TRUE(subs.back().accepted());
  }

  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 19;
  Runtime rt(ropts);
  for (std::uint64_t rhs = 1; rhs <= 4; ++rhs) {
    const auto& reply = subs[rhs - 1].reply->wait();
    ASSERT_EQ(reply.status, ReplyStatus::kOk);
    const auto direct = rt.solve_laplacian(g, gaussian_rhs(g.num_vertices(), rhs),
                                           facade_options());
    EXPECT_TRUE(BitwiseEqual(reply.x, direct.x)) << "rhs " << rhs;
  }
  service.shutdown();

  const auto stats = service.stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.totals.sparsify_count, 1u);
  EXPECT_EQ(stats.totals.cache_misses, 1u);
  EXPECT_EQ(stats.totals.cache_hits, 3u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

TEST(SolverService, ShutdownDrainsEveryAcceptedRequestThenRejects) {
  const graph::Graph g = service_test_graph();
  ServiceOptions opts;
  opts.workers = 1;
  SolverService service(opts);

  std::vector<Submission> subs;
  for (std::uint64_t rhs = 1; rhs <= 4; ++rhs) {
    subs.push_back(service.submit(solve_request(g, rhs)));
    ASSERT_TRUE(subs.back().accepted());
  }
  service.shutdown();
  // Accepted implies fulfilled: every reply is ready after shutdown.
  for (auto& sub : subs) {
    ASSERT_TRUE(sub.reply->ready());
    EXPECT_EQ(sub.reply->wait().status, ReplyStatus::kOk);
  }

  Submission late = service.submit(solve_request(g, 9));
  EXPECT_FALSE(late.accepted());
  EXPECT_EQ(late.admission, Admission::kRejectedShutdown);
  EXPECT_STREQ(late.reason(), "shutting-down");

  const auto stats = service.stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.rejected_shutdown, 1u);
}

}  // namespace
}  // namespace bcclap
