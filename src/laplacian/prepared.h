// Immutable prepared-solver artifacts: the "prepare" half of the solve
// stack's prepare/apply split.
//
// Every engine's work factors into two phases with very different
// lifetimes:
//
//   prepare(ctx, g)  — sparsify, order, factor: all the per-topology work
//                      (the expensive half), producing an immutable
//                      artifact (sparsifier output, CSC/dense factors,
//                      iteration bounds);
//   apply(ctx, b)    — iterate/substitute against the artifact: the
//                      per-request work.
//
// PreparedLaplacian is that artifact. It owns copies of everything it
// needs (graphs, factors, index maps) and holds no pool, no Context and
// no mutable state, so one artifact is safe to apply concurrently from
// any number of Runtimes — and because every kernel's chunk boundaries
// depend only on (range, grain, min_work), never on the thread count, an
// artifact prepared once yields bitwise-identical solutions wherever it
// is applied. That makes prepared artifacts cacheable across requests:
// the factorization cache (core/factor_cache.h) retains them keyed by
// graph fingerprint, which is the "factor once, solve many across
// requests" economics the solver service is built on.
//
// The engine registry (laplacian/engine.h) maps each key to the prepare
// function that builds its artifact; the facade (core/runtime.h) and the
// solver service hold artifacts directly and call apply/apply_many.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/context.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_ldlt.h"
#include "linalg/vector_ops.h"
#include "sparsify/spectral_sparsify.h"

namespace bcclap::laplacian {

// Per-instance engine configuration. Prepare-time fields: `sparsify`
// (preconditioner construction — part of the cache identity). Apply-time
// fields, deliberately NOT baked into prepared artifacts so one artifact
// serves requests at any accuracy: `eps` (every engine) and
// `max_iterations` (the CG engine; 0 = 4n + 128, a generous cap for a
// baseline solver).
struct EngineOptions {
  double eps = 1e-8;
  sparsify::SparsifyOptions sparsify;
  std::size_t max_iterations = 0;
};

// The immutable post-prepare state of one engine on one graph.
//
// Threading/determinism contract: const methods only, no internal
// synchronization needed — apply() may run concurrently from multiple
// Runtimes, and its solution bytes depend on the artifact, b, opt and
// ctx's (seed, min_work_per_chunk) but never on ctx's thread count.
class PreparedLaplacian {
 public:
  virtual ~PreparedLaplacian() = default;

  virtual std::string_view engine_key() const = 0;

  // False: the prepare phase failed numerically (degenerate input); apply
  // must not be called. Unusable artifacts are never cached.
  virtual bool usable() const = 0;

  virtual std::size_t dim() const = 0;

  // Solve L_G x = b (b projected onto range(L_G) per component) to the
  // engine's accuracy contract at opt.eps. If stats is non-null, the
  // apply's own counters are *assigned* (iterations, rounds, panels) along
  // with the artifact's factor tallies — the per-call stats shape the
  // historical SolveStats contract used. Throws std::invalid_argument on
  // a wrong-sized b.
  virtual linalg::Vec apply(const common::Context& ctx, const linalg::Vec& b,
                            const EngineOptions& opt,
                            core::RunStats* stats) const = 0;

  // Batched multi-RHS apply; column j matches apply(ctx, column j)'s
  // contract (byte-identical for the exact artifacts). stats->panels = 1.
  virtual linalg::DenseMatrix apply_many(const common::Context& ctx,
                                         const linalg::DenseMatrix& b,
                                         const EngineOptions& opt,
                                         core::RunStats* stats) const = 0;

  // Preconditioner introspection (non-null only when the prepare phase
  // built one — the sparsified engine's H).
  virtual const graph::Graph* sparsifier() const { return nullptr; }
  virtual bool tree_patched() const { return false; }
  virtual std::int64_t preprocessing_rounds() const { return 0; }

  // What the prepare phase cost, for RunStats: factorization backend
  // tallies and the number of sparsifier constructions (0 or 1). A run
  // served from the cache reports none of these — it did none of the work.
  virtual std::size_t dense_factors() const { return 0; }
  virtual std::size_t sparse_factors() const { return 0; }
  virtual std::size_t sparsify_count() const { return 0; }

  // Phase breakdown (ordering/symbolic/numeric wall, supernode count,
  // fill nnz) summed over the sparse factorizations the prepare phase
  // ran; all-zero for dense-only or factorization-free artifacts. Same
  // reporting rule as the tallies above: a cache-served run adds none.
  virtual linalg::SparseFactorPhases factor_phases() const { return {}; }

  // Bytes the artifact keeps resident (graph copies, factors, index
  // maps); the factorization cache charges its LRU budget with this.
  virtual std::size_t resident_bytes() const = 0;
};

// Prepare-phase factories for the built-in engines (implemented in
// prepared.cpp; the registrations in engines/ call these). Each always
// returns a non-null artifact; numerical failure is reported via
// usable() so the caller can distinguish "degenerate input" from a bug.

// Exact per-component factorization with the backend pinned to `mode`
// (kForceDense for "exact-dense", kForceSparse for "exact-sparse").
std::shared_ptr<const PreparedLaplacian> prepare_exact(
    const common::Context& ctx, const graph::Graph& g, linalg::FactorMode mode,
    std::string_view engine_key);

// The paper pipeline's prepare phase: spectral sparsifier H (seeded by
// ctx.seed()), spanning-forest patch if H lost connectivity, and the
// per-component factorization of L_H.
std::shared_ptr<const PreparedLaplacian> prepare_sparsified_chebyshev(
    const common::Context& ctx, const graph::Graph& g,
    const sparsify::SparsifyOptions& opt);

// Jacobi-CG baseline: copies the graph, the component labels and the
// weighted-degree diagonal; iteration happens at apply time.
std::shared_ptr<const PreparedLaplacian> prepare_cg(const common::Context& ctx,
                                                    const graph::Graph& g);

}  // namespace bcclap::laplacian
