// PR 9: solver-service throughput — a burst of same-topology single-RHS
// solve requests pushed through service::SolverService at 1 and 4 workers,
// against a cold and a (persistently) warm shared FactorCache.
//
// Counters are deterministic across thread configurations (the bench.sh
// gate): request/served counts, reply-byte identity against the direct
// facade's batched solve (the PR 5 panel contract makes the reference
// column-exact), the warm-cache residency check (no misses, at least one
// hit, zero prepare work) and a solution-norm fingerprint. Coalescing
// widths and per-run hit tallies are timing-dependent under concurrent
// workers, so they are deliberately NOT counters — the warm/cold checks
// are phrased as residency predicates instead.
//
// A second workload, exact-sparse at n = 1024 (workers = 1 only), gives the
// warm-vs-cold timing gate a cold burst whose prepare (AMD ordering plus
// supernodal factor) outweighs the timing noise of the bursts themselves.
#include "support/harness.h"

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/factor_cache.h"
#include "core/runtime.h"
#include "graph/generators.h"
#include "linalg/vector_ops.h"
#include "service/solver_service.h"

namespace {

using namespace bcclap;

constexpr std::size_t kRequests = 16;
constexpr std::uint64_t kSeed = 77;

// One burst workload: a topology and the solve options every request of
// the burst carries.
struct Workload {
  std::size_t n;
  LaplacianSolveOptions lopt;
  std::string key() const { return lopt.engine + "/" + std::to_string(n); }
};

// The first burst: sparsified Chebyshev at n = 256, whose prepare is a
// small sparsify and dense factor.
Workload sparsified_256() {
  Workload w{256, {}};
  w.lopt.eps = 1e-4;
  w.lopt.sparsify.epsilon = 0.5;
  w.lopt.sparsify.k = 2;
  w.lopt.sparsify.t = 2;
  w.lopt.engine = "sparsified-chebyshev";
  return w;
}

// exact-sparse at n = 1024: a cold burst pays an AMD ordering and a
// supernodal factor with a dense tail, tens of milliseconds against the
// warm burst's solves — the pair the warm-vs-cold timing gate reads.
Workload exact_sparse_1024() {
  Workload w{1024, {}};
  w.lopt.engine = "exact-sparse";
  return w;
}

const graph::Graph& service_graph(std::size_t n) {
  static std::map<std::size_t, graph::Graph> graphs;
  auto it = graphs.find(n);
  if (it == graphs.end()) {
    rng::Stream stream(n * 3 + 1);
    it = graphs.emplace(n, graph::random_regularish(n, 8, 4, stream)).first;
  }
  return it->second;
}

linalg::Vec request_rhs(std::size_t n, std::size_t i) {
  rng::Stream stream(1000 + i);
  linalg::Vec b(n);
  for (auto& v : b) v = stream.next_gaussian();
  return b;
}

service::Request nth_request(const Workload& w, std::size_t i) {
  service::Request req;
  req.type = service::RequestType::kSolve;
  req.seed = kSeed;
  req.engine = w.lopt.engine;
  req.eps = w.lopt.eps;
  req.sparsify = w.lopt.sparsify;
  req.graph = service_graph(w.n);
  req.b = request_rhs(w.n, i);
  return req;
}

// Reference bytes: one facade panel solve outside any service. Computed
// once per workload (the first call pays it — during a warmup iteration),
// then reused by every case of that workload as the byte-compare target.
const linalg::DenseMatrix& reference_panel(const Workload& w) {
  static std::map<std::string, linalg::DenseMatrix> refs;
  auto it = refs.find(w.key());
  if (it == refs.end()) {
    RuntimeOptions opts;
    opts.threads = 0;  // BCCLAP_THREADS / hardware
    opts.seed = kSeed;
    Runtime rt(opts);
    linalg::DenseMatrix b(w.n, kRequests);
    for (std::size_t j = 0; j < kRequests; ++j) {
      b.set_column(j, request_rhs(w.n, j));
    }
    const linalg::DenseMatrix x =
        rt.solve_laplacian_many(service_graph(w.n), b, w.lopt).x;
    it = refs.emplace(w.key(), x).first;
  }
  return it->second;
}

void service_solve(bench::State& s, const Workload& w, std::size_t workers,
                   bool warm) {
  // Warm cases share one FactorCache across repetitions (the warmup
  // iteration populates it); cold cases get a fresh cache every time.
  std::shared_ptr<core::FactorCache> cache;
  if (warm) {
    static std::map<std::string, std::shared_ptr<core::FactorCache>> persistent;
    auto& slot = persistent[w.key() + "/" + std::to_string(workers)];
    if (!slot) slot = std::make_shared<core::FactorCache>(256u << 20);
    cache = slot;
  } else {
    cache = std::make_shared<core::FactorCache>(256u << 20);
  }
  const auto cache_before = cache->stats();
  const linalg::DenseMatrix& reference = reference_panel(w);

  service::ServiceOptions opts;
  opts.workers = workers;
  opts.runtime_threads = 0;  // BCCLAP_THREADS / hardware
  opts.factor_cache = cache;
  service::SolverService svc(opts);

  std::vector<std::shared_ptr<service::PendingReply>> pending;
  pending.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    service::Submission sub = svc.submit(nth_request(w, i));
    if (!sub.accepted()) continue;  // cannot happen at this queue depth
    pending.push_back(sub.reply);
  }

  bool identical = pending.size() == kRequests;
  double fingerprint = 0.0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const service::Reply& reply = pending[i]->wait();
    if (reply.status != service::ReplyStatus::kOk ||
        reply.x.size() != w.n) {
      identical = false;
      continue;
    }
    const linalg::Vec want = reference.column(i);
    if (std::memcmp(reply.x.data(), want.data(), w.n * sizeof(double)) != 0) {
      identical = false;
    }
    if (i == 0) fingerprint = linalg::norm2(reply.x);
  }
  svc.shutdown();
  const auto stats = svc.stats();
  const auto cache_after = cache->stats();

  s.counter("n", static_cast<double>(w.n));
  s.counter("requests", static_cast<double>(kRequests));
  s.counter("served", static_cast<double>(stats.served));
  s.counter("failed", static_cast<double>(stats.failed));
  s.counter("identical_to_reference", identical ? 1.0 : 0.0);
  s.counter("fingerprint_xnorm", fingerprint);
  if (warm) {
    // Residency predicates (deterministic; raw hit counts are not — the
    // coalescing width under concurrent workers is timing-dependent):
    // a warm burst never misses, hits at least once, and runs zero
    // sparsify/factor prepare work.
    const bool all_hits = cache_after.misses == cache_before.misses &&
                          cache_after.hits > cache_before.hits;
    const std::size_t prepare_work = stats.totals.sparsify_count +
                                     stats.totals.dense_factors +
                                     stats.totals.sparse_factors;
    s.counter("warm_all_hits", all_hits ? 1.0 : 0.0);
    s.counter("warm_prepare_work", static_cast<double>(prepare_work));
  } else {
    s.counter("cold_prepared",
              cache_after.misses > cache_before.misses ? 1.0 : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bcclap::bench::Harness h("bench_service");
  h.add("service_solve/n=256/workers=1/cold", [](bcclap::bench::State& s) {
    service_solve(s, sparsified_256(), 1, false);
  });
  h.add("service_solve/n=256/workers=1/warm", [](bcclap::bench::State& s) {
    service_solve(s, sparsified_256(), 1, true);
  });
  h.add("service_solve/n=256/workers=4/cold", [](bcclap::bench::State& s) {
    service_solve(s, sparsified_256(), 4, false);
  });
  h.add("service_solve/n=256/workers=4/warm", [](bcclap::bench::State& s) {
    service_solve(s, sparsified_256(), 4, true);
  });
  h.add("service_solve/exact-sparse/n=1024/workers=1/cold",
        [](bcclap::bench::State& s) {
          service_solve(s, exact_sparse_1024(), 1, false);
        });
  h.add("service_solve/exact-sparse/n=1024/workers=1/warm",
        [](bcclap::bench::State& s) {
          service_solve(s, exact_sparse_1024(), 1, true);
        });
  return h.run(argc, argv);
}
