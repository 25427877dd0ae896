#include "core/runtime.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bcc/network.h"
#include "core/factor_cache.h"
#include "laplacian/engine.h"

namespace bcclap {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Process-default Runtime storage. The atomic pointer is the lock-free
// fast path; creation and reset serialize on the mutex, and the pointer
// is published only under it.
std::mutex g_default_mu;
std::unique_ptr<Runtime> g_default;
std::atomic<Runtime*> g_default_ptr{nullptr};
// Past default Runtimes, retired (pool drained) but never destroyed:
// objects built against the old default before a reset — Networks,
// solvers, factors — hold pointers into the old Runtime's pool, so
// destroying the old instance would introduce a use-after-free.
// Retirement is bounded by the number of reset_process_default calls (a
// test/bench escape hatch), and a drained pool executes inline, so a
// retired pool costs memory only, not threads.
std::vector<std::unique_ptr<Runtime>> g_retired;  // under g_default_mu

}  // namespace

Runtime::Runtime(const RuntimeOptions& opts)
    : opts_(opts),
      pool_(std::make_unique<common::ThreadPool>(
          opts.threads == 0 ? common::default_thread_count() : opts.threads)),
      root_(opts.seed) {
  if (opts.factor_cache) {
    cache_ = opts.factor_cache;
  } else if (opts.factor_cache_bytes > 0) {
    cache_ = std::make_shared<core::FactorCache>(opts.factor_cache_bytes);
  }
}

Runtime::~Runtime() = default;

Runtime& Runtime::process_default() {
  if (Runtime* rt = g_default_ptr.load(std::memory_order_acquire)) {
    return *rt;
  }
  std::lock_guard<std::mutex> lock(g_default_mu);
  if (!g_default) {
    g_default = std::make_unique<Runtime>(RuntimeOptions{});
    g_default_ptr.store(g_default.get(), std::memory_order_release);
  }
  return *g_default;
}

void Runtime::reset_process_default(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  RuntimeOptions opts;
  opts.threads = threads;
  if (g_default) {
    // The precondition ("no parallel_for in flight on the default pool")
    // used to be unenforced: a racing kernel would dispatch onto a pool
    // being destroyed. Make the violation detectable instead of UB.
    if (g_default->pool().busy()) {
      std::fprintf(stderr,
                   "bcclap: Runtime::reset_process_default called while a "
                   "parallel_for is in flight on the default pool\n");
      std::abort();
    }
    opts.seed = g_default->opts_.seed;
    opts.min_work_per_chunk = g_default->opts_.min_work_per_chunk;
  }
  // Publish the replacement first so a concurrent process_default()
  // fast-path load never observes a pointer to a dead instance, then
  // retire the old Runtime: drain its workers (a dispatch that slipped
  // past the busy() check falls back to inline execution — byte-identical
  // results, no use-after-free) and keep the instance alive for the
  // deprecated-path objects that still point into it.
  auto next = std::make_unique<Runtime>(opts);
  g_default_ptr.store(next.get(), std::memory_order_release);
  std::swap(g_default, next);
  if (next) {
    next->pool().drain();
    g_retired.push_back(std::move(next));
  }
}

namespace {

// The artifact a facade run applies, and whether this run prepared it.
struct Artifact {
  std::shared_ptr<const laplacian::PreparedLaplacian> prepared;
  bool prepared_here = true;
};

// Prepares the artifact behind the concrete engine `key` for graph g: from
// rt's cache when one is configured (counting hits/misses/evictions into
// *stats), otherwise by running the engine's prepare function.
Artifact prepare_artifact(const Runtime& rt, const std::string& key,
                          const graph::Graph& g,
                          const laplacian::EngineOptions& eopt,
                          core::RunStats* stats) {
  const auto& registry = laplacian::EngineRegistry::instance();
  const std::shared_ptr<core::FactorCache>& cache = rt.factor_cache();
  if (!cache) return {registry.prepare(key, rt.context(), g, eopt)};
  const core::FactorCacheKey ckey =
      core::make_factor_cache_key(key, g, rt.options().seed,
                                  rt.options().min_work_per_chunk, eopt);
  // Deduplicating lookup: N concurrent cold requests for the same key run
  // ONE prepare — the first caller leads, the rest block on the in-flight
  // registration and adopt the published artifact as cache hits.
  bool leader = false;
  if (auto hit = cache->lookup_or_join(ckey, &leader)) {
    stats->cache_hits += 1;
    return {std::move(hit), false};
  }
  stats->cache_misses += 1;
  Artifact out;
  try {
    out.prepared = registry.prepare(key, rt.context(), g, eopt);
  } catch (...) {
    cache->withdraw(ckey);
    throw;
  }
  if (!out.prepared->usable()) {
    // Waiters must not adopt an unusable artifact; wake them to re-elect
    // (their own prepare will fail the same way, but independently).
    cache->withdraw(ckey);
    return out;
  }
  std::uint64_t evicted = 0;
  auto canonical = cache->publish(ckey, out.prepared, &evicted);
  // A concurrent preparer may have raced us past the in-flight slot (e.g.
  // via a plain insert); its entry is canonical, so this run applies the
  // same bytes every cached run sees — and reports none of our prepare
  // work, as for any other artifact prepared elsewhere.
  if (canonical != out.prepared) out = {std::move(canonical), false};
  stats->cache_evictions += static_cast<std::size_t>(evicted);
  return out;
}

// Shared body of solve_laplacian{,_many}: resolve the engine, prepare (or
// adopt) the artifact, apply it to b, and fold the counters into one
// RunStats. Prepare-phase tallies are charged only when this run prepared
// the artifact; an unusable artifact is never applied, but its
// tree_patched / sparsifier / preprocessing rounds are still reported.
template <typename Run, typename Rhs>
Run solve_on(const Runtime& rt, const graph::Graph& g, const Rhs& b,
             const LaplacianSolveOptions& opt) {
  const auto start = std::chrono::steady_clock::now();
  Run out;
  out.stats.engine = laplacian::EngineRegistry::instance().resolve(
      opt.engine, g.num_vertices(),
      laplacian::EngineRegistry::laplacian_density(g), opt.eps);
  laplacian::EngineOptions eopt;
  eopt.eps = opt.eps;
  eopt.sparsify = opt.sparsify;
  const Artifact artifact =
      prepare_artifact(rt, out.stats.engine, g, eopt, &out.stats);
  const laplacian::PreparedLaplacian& p = *artifact.prepared;
  out.usable = p.usable();
  if (out.usable) {
    core::RunStats st;
    if constexpr (std::is_same_v<Rhs, linalg::Vec>) {
      out.x = p.apply(rt.context(), b, eopt, &st);
    } else {
      out.x = p.apply_many(rt.context(), b, eopt, &st);
    }
    out.stats.iterations += st.iterations;
    out.stats.rounds += st.rounds;
    out.stats.panels += st.panels;
    if (artifact.prepared_here) {
      out.stats.dense_factors += p.dense_factors();
      out.stats.sparse_factors += p.sparse_factors();
      out.stats.sparsify_count += p.sparsify_count();
      const linalg::SparseFactorPhases phases = p.factor_phases();
      out.stats.supernodes += phases.supernodes;
      out.stats.factor_fill_nnz += phases.fill_nnz;
      out.stats.ordering_seconds += phases.ordering_seconds;
      out.stats.symbolic_seconds += phases.symbolic_seconds;
      out.stats.numeric_seconds += phases.numeric_seconds;
    }
  }
  out.tree_patched = p.tree_patched();
  if (const graph::Graph* h = p.sparsifier()) out.sparsifier = *h;
  out.preprocessing_rounds =
      artifact.prepared_here ? p.preprocessing_rounds() : 0;
  out.stats.rounds += out.preprocessing_rounds;
  out.stats.wall_seconds = seconds_since(start);
  return out;
}

}  // namespace

LaplacianRun Runtime::solve_laplacian(const graph::Graph& g,
                                      const linalg::Vec& b,
                                      const LaplacianSolveOptions& opt) {
  if (b.size() != g.num_vertices()) {
    throw std::invalid_argument(
        "Runtime::solve_laplacian: right-hand side has " +
        std::to_string(b.size()) + " rows, graph has " +
        std::to_string(g.num_vertices()) + " vertices");
  }
  return solve_on<LaplacianRun>(*this, g, b, opt);
}

LaplacianManyRun Runtime::solve_laplacian_many(
    const graph::Graph& g, const linalg::DenseMatrix& b,
    const LaplacianSolveOptions& opt) {
  if (b.rows() != g.num_vertices()) {
    throw std::invalid_argument(
        "Runtime::solve_laplacian_many: right-hand side has " +
        std::to_string(b.rows()) + " rows, graph has " +
        std::to_string(g.num_vertices()) + " vertices");
  }
  return solve_on<LaplacianManyRun>(*this, g, b, opt);
}

SparsifyRun Runtime::sparsify(const graph::Graph& g,
                              const sparsify::SparsifyOptions& opt) {
  const auto start = std::chrono::steady_clock::now();
  SparsifyRun out;
  bcc::Network net(bcc::Model::kBroadcastCongest, g,
                   bcc::Network::default_bandwidth(g.num_vertices()),
                   context());
  out.result = sparsify::spectral_sparsify(context(), g, opt, net);
  out.stats = out.result.stats;
  out.stats.wall_seconds = seconds_since(start);
  return out;
}

McmfRun Runtime::min_cost_max_flow(const graph::Digraph& g, std::size_t s,
                                   std::size_t t,
                                   const flow::McmfOptions& opt) {
  const auto start = std::chrono::steady_clock::now();
  McmfRun out;
  out.result = flow::min_cost_max_flow_ipm(context(), g, s, t, opt);
  out.stats = out.result.stats;
  out.stats.wall_seconds = seconds_since(start);
  return out;
}

}  // namespace bcclap
