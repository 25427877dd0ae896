// bcclap::Runtime — the execution context an entire pipeline runs inside.
//
// A Runtime owns the three things the layers used to reach for globally or
// receive ad hoc: a worker pool (common/thread_pool.h), the root of the
// deterministic RNG stream tree (common/rng.h), and the chunking policy.
// Layers receive a lightweight common::Context view of it; two Runtimes
// with different worker counts run two independently-configured pipelines
// concurrently in one process, each keeping the byte-identical-determinism
// contract against its own 1-thread configuration
// (tests/test_runtime.cpp).
//
//   bcclap::RuntimeOptions opts;
//   opts.threads = 4;
//   opts.seed = 7;
//   bcclap::Runtime rt(opts);
//   auto res = rt.solve_laplacian(g, b);
//   // res.x, res.stats.rounds / .iterations / .wall_seconds
//
// Runtime::process_default() is the lazily-created Runtime for callers
// that want a shared, process-wide configuration (tests of the historical
// single-configuration contract, quick scripts); it resolves its worker
// count from BCCLAP_THREADS / hardware_concurrency.
//
// Optional factorization cache: set RuntimeOptions::factor_cache_bytes
// (or share a core::FactorCache across Runtimes via ::factor_cache) and
// repeat solve_laplacian{,_many} calls on the same topology skip the
// sparsify+factor prepare phase, with bitwise-identical solutions —
// see core/factor_cache.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/context.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/stats.h"
#include "flow/mcmf_solver.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"
#include "sparsify/spectral_sparsify.h"

namespace bcclap {

namespace core {
class FactorCache;
}

struct RuntimeOptions {
  // Worker threads (including the calling thread). 0 resolves via
  // common::default_thread_count(): BCCLAP_THREADS env if set, else the
  // BCCLAP_DEFAULT_THREADS compile-time knob, else hardware_concurrency.
  std::size_t threads = 0;
  // Root seed of the Runtime's deterministic stream tree. Facade calls
  // derive their randomness from this seed (not from the root stream's
  // position), so results are independent of call order. One documented
  // exception: min_cost_max_flow's Daitch-Spielman perturbation draws
  // from McmfOptions::seed (so a fixed McmfOptions reproduces across
  // Runtimes); this seed still governs every layer beneath it that a
  // context-built gram_factory reaches.
  std::uint64_t seed = 0;
  // Minimum scalar operations per chunk before a kernel fans out to the
  // pool; the knob behind common::Context::grain.
  std::size_t min_work_per_chunk = common::kDefaultMinWorkPerChunk;
  // Factorization-cache budget in resident bytes (core/factor_cache.h).
  // 0 (the default) disables caching: every facade solve prepares its own
  // artifact, byte-identical to the pre-cache behavior. Nonzero gives
  // this Runtime a private cache of that size.
  std::size_t factor_cache_bytes = 0;
  // A cache shared across Runtimes (takes precedence over
  // factor_cache_bytes when set): two Runtimes with the same seed and
  // chunking policy pointed at one cache share prepare work — safe at any
  // thread counts, since artifacts are immutable and thread count is not
  // part of the cache key.
  std::shared_ptr<core::FactorCache> factor_cache;
};

// ---- facade option/result shapes (stats unified on core::RunStats) ----

struct LaplacianSolveOptions {
  double eps = 1e-8;                    // energy-norm accuracy target
  sparsify::SparsifyOptions sparsify;   // preconditioner construction
  // Engine registry key (laplacian/engine.h): "auto" lets the tuner pick
  // per instance from (n, density, eps), and a concrete key
  // ("exact-dense", "exact-sparse", "sparsified-chebyshev", "cg") pins the
  // backend. Unknown keys throw std::invalid_argument.
  std::string engine = "auto";
};

struct LaplacianRun {
  linalg::Vec x;
  bool usable = false;       // false: engine factorization failed
  bool tree_patched = false; // sparsifier lost connectivity, forest unioned
  graph::Graph sparsifier;   // the preconditioner H used (empty: engine
                             // builds none — the exact and cg engines)
  std::int64_t preprocessing_rounds = 0;
  // rounds = preprocessing + solve; iterations = the engine's outer
  // iterations; engine = the resolved registry key that served the run.
  // Prepare-phase tallies (factor counts, sparsify count, factor phases,
  // preprocessing_rounds) are charged only when this run prepared the
  // artifact — a cache hit, or a publish that lost to a canonical cached
  // artifact, did none of that work.
  core::RunStats stats;
};

struct LaplacianManyRun {
  linalg::DenseMatrix x;  // n x k, one solution per column of the panel
  bool usable = false;
  bool tree_patched = false;
  graph::Graph sparsifier;
  std::int64_t preprocessing_rounds = 0;
  // Per-panel stats: rounds = preprocessing + the whole panel's solve,
  // iterations = per-column iterations, panels = 1, engine = the resolved
  // registry key that served the run; prepare-phase tallies as in
  // LaplacianRun.
  core::RunStats stats;
};

struct SparsifyRun {
  sparsify::SparsifyResult result;
  // rounds = BC rounds of the run; iterations = resolved outer iterations.
  core::RunStats stats;
};

struct McmfRun {
  flow::McmfIpmResult result;
  // rounds = accounted BCC rounds; iterations = IPM path steps;
  // steps = Newton centering steps.
  core::RunStats stats;
};

class Runtime {
 public:
  explicit Runtime(const RuntimeOptions& opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const RuntimeOptions& options() const { return opts_; }
  common::ThreadPool& pool() const { return *pool_; }
  std::size_t num_threads() const { return pool_->num_threads(); }
  std::uint64_t seed() const { return opts_.seed; }

  // Root of the stream tree, for callers that need sequential draws (e.g.
  // workload generation). The facade methods never consume it — they
  // derive from seed() — so drawing here does not perturb pipeline
  // results.
  rng::Stream& root_stream() { return root_; }

  // The view handed to the layer APIs. Valid as long as this Runtime
  // lives.
  common::Context context() const {
    return common::Context(*pool_, opts_.seed, opts_.min_work_per_chunk);
  }

  // ---- pipeline facade -------------------------------------------------
  // Each call is a self-contained run on this Runtime's pool and seed,
  // with wall time and per-layer counters folded into RunStats.

  // Theorem 1.3: sparsifier-preconditioned solve of L_G x = b.
  LaplacianRun solve_laplacian(const graph::Graph& g, const linalg::Vec& b,
                               const LaplacianSolveOptions& opt = {});

  // Batched multi-RHS form: b is n x k, one right-hand side per column.
  // The sparsifier is built and factored once for the whole panel — the
  // "factor once, solve many" amortization the repeated-solve workloads
  // (JL probes, IPM re-solves) are built on. Column j of the result is
  // byte-identical to solve_laplacian(g, column j, opt).x.
  LaplacianManyRun solve_laplacian_many(const graph::Graph& g,
                                        const linalg::DenseMatrix& b,
                                        const LaplacianSolveOptions& opt = {});

  // Theorem 1.2: Algorithm 5 spectral sparsification over a Broadcast
  // CONGEST network on g's topology. Seeded by seed() — couple with
  // spectral_sparsify_apriori(g, opt, rt.seed()) for the Lemma 3.3 check.
  SparsifyRun sparsify(const graph::Graph& g,
                       const sparsify::SparsifyOptions& opt = {});

  // Theorem 1.1: exact min-cost max-flow via the IPM pipeline. The cost
  // perturbation is seeded by opt.seed (see RuntimeOptions::seed).
  McmfRun min_cost_max_flow(const graph::Digraph& g, std::size_t s,
                            std::size_t t, const flow::McmfOptions& opt = {});

  // The cache behind this Runtime's facade solves: the shared cache from
  // RuntimeOptions::factor_cache, a private one sized by
  // factor_cache_bytes, or null (caching off, the default).
  const std::shared_ptr<core::FactorCache>& factor_cache() const {
    return cache_;
  }

  // The process-default Runtime: created on first use with RuntimeOptions{}
  // (env-resolved thread count) and shared by callers that want one
  // process-wide configuration. Lives for the whole process unless reset
  // via reset_process_default.
  static Runtime& process_default();

  // Rebuilds the process-default Runtime with `threads` workers (0 =
  // env-resolved), preserving seed and chunking policy. The old Runtime
  // is *retired*, not destroyed: its pool is drained (workers joined;
  // later dispatches run inline with identical results) and the instance
  // kept alive, so objects created against the old default never dangle.
  // Precondition: no parallel_for in flight on the default pool —
  // violations abort with a diagnostic.
  static void reset_process_default(std::size_t threads);

 private:
  RuntimeOptions opts_;
  std::unique_ptr<common::ThreadPool> pool_;
  rng::Stream root_;
  std::shared_ptr<core::FactorCache> cache_;
};

}  // namespace bcclap
