#include "core/runtime.h"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

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

// Rejects a facade solve's input up front: a right-hand side whose row
// count is not the graph's vertex count, a non-finite or negative edge
// weight, or a non-finite right-hand-side entry (which some engines would
// otherwise turn into a NaN, zero or wrong x flagged usable; a negative
// weight makes L_G indefinite). Zero weights stay legal. b is the
// row-major rows x cols panel.
void check_input(const char* where, const graph::Graph& g, std::size_t rows,
                 std::size_t cols, const double* b) {
  const auto reject = [where](const std::string& what) {
    throw std::invalid_argument(std::string(where) + ": " + what);
  };
  if (rows != g.num_vertices()) {
    reject("right-hand side has " + std::to_string(rows) +
           " rows, graph has " + std::to_string(g.num_vertices()) +
           " vertices");
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const double w = g.edge(e).weight;
    if (!std::isfinite(w)) {
      reject("edge " + std::to_string(e) + " has a non-finite weight");
    }
    if (w < 0.0) reject("edge " + std::to_string(e) + " has a negative weight");
  }
  for (std::size_t i = 0; i < rows * cols; ++i) {
    if (std::isfinite(b[i])) continue;
    reject("right-hand side entry " +
           (cols == 1 ? std::to_string(i)
                      : "(" + std::to_string(i / cols) + ", " +
                            std::to_string(i % cols) + ")") +
           " is not finite");
  }
}

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

LaplacianRun Runtime::solve_laplacian(const graph::Graph& g,
                                      const linalg::Vec& b,
                                      const LaplacianSolveOptions& opt) {
  check_input("Runtime::solve_laplacian", g, b.size(), 1, b.data());
  return solve_on<LaplacianRun>(*this, g, b, opt);
}

LaplacianManyRun Runtime::solve_laplacian_many(
    const graph::Graph& g, const linalg::DenseMatrix& b,
    const LaplacianSolveOptions& opt) {
  check_input("Runtime::solve_laplacian_many", g, b.rows(), b.cols(),
              b.data());
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
