// Pluggable solver-engine registry (ROADMAP: "pluggable engine registry").
//
// Before this layer the choice between the exact-dense, exact-sparse and
// sparsified+Chebyshev solve paths was hard-coded in three ad-hoc seams
// (`make_*_sdd_engine`, `sparse_path_selected`, the Runtime facade naming
// SparsifiedLaplacianSolver directly). EngineRegistry generalizes PR 6's
// dense/sparse dispatch into one string-keyed factory:
//
//   key                      algorithm
//   "exact-dense"            grounded dense blocked LDL^T per component
//   "exact-sparse"           grounded sparse CSC LDL^T per component
//   "sparsified-chebyshev"   spectral sparsifier + preconditioned
//                            Chebyshev (Theorem 1.3 — the paper pipeline)
//   "cg"                     Jacobi-preconditioned conjugate gradient
//                            (baseline / ablation; never auto-selected)
//   "auto"                   tuner: picks one of the above per instance
//                            from (n, stored density, requested eps)
//
// Engines solve Laplacian systems behind the LaplacianEngine interface
// and SDD systems behind the existing SddEngine interface (bcc_solver.h);
// both are constructed by key, so a new backend plugs in by registering
// itself and touches no dispatch code. Selection can be forced
// process-wide with BCCLAP_ENGINE=<key> (consulted whenever "auto" is
// requested; an explicit key in options wins over the environment,
// mirroring how set_factor_mode wins over BCCLAP_FACTOR_PATH). Unknown
// keys throw std::invalid_argument listing the registered keys; unknown
// BCCLAP_ENGINE values warn once and fall back to the tuner (same policy
// as BCCLAP_FACTOR_PATH).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/context.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "laplacian/bcc_solver.h"
#include "laplacian/prepared.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"

namespace bcclap::laplacian {

// Unified Laplacian-solver interface the registry vends, split along the
// prepare/apply seam (laplacian/prepared.h):
//
//   prepare(ctx, g)  — the ONE engine-specific virtual besides key():
//                      runs the per-topology work and returns the
//                      immutable artifact.
//   factor / adopt   — install an artifact: factor() prepares here;
//                      adopt() installs one prepared elsewhere (a
//                      factorization-cache hit), after which this engine
//                      reports none of the prepare-phase cost — it did
//                      none of the work.
//   solve / solve_many — base-class applies against the artifact,
//                      accumulating per-request counters (iterations,
//                      rounds, panels) across calls.
//   report()         — folds the accumulated counters into a RunStats and
//                      stamps the engine key; prepare-phase tallies
//                      (dense/sparse factors, sparsify count,
//                      preprocessing rounds) are included only when the
//                      artifact was prepared by this engine. rounds
//                      excludes preprocessing_rounds() — the facade adds
//                      that separately, preserving the PR 6 reporting
//                      split.
//
// Engines are cheap, stateful, per-run objects; the artifact is the
// expensive shared value.
class LaplacianEngine {
 public:
  explicit LaplacianEngine(const EngineOptions& opt) : opt_(opt) {}
  virtual ~LaplacianEngine() = default;

  virtual std::string_view key() const = 0;

  // The engine's prepare phase: all per-topology work (sparsify, order,
  // factor), honoring the prepare-time fields of options(). Never null;
  // numerical failure is reported via the artifact's usable().
  virtual std::shared_ptr<const PreparedLaplacian> prepare(
      const common::Context& ctx, const graph::Graph& g) const = 0;

  // Prepares an artifact here and installs it. False = numerically
  // degenerate input (artifact unusable); do not solve.
  bool factor(const common::Context& ctx, const graph::Graph& g);

  // Installs an artifact prepared elsewhere (cache hit / shared value).
  // Requires artifact && artifact->usable().
  void adopt(std::shared_ptr<const PreparedLaplacian> artifact);

  // Solve L_G x = b (b projected onto range(L_G) per component) to the
  // engine's accuracy contract at EngineOptions::eps. Throws
  // std::invalid_argument on a wrong-sized b.
  linalg::Vec solve(const common::Context& ctx, const linalg::Vec& b);

  // Batched multi-RHS form; column j is byte-identical (exact engines) or
  // matches the single-RHS path's contract (iterative engines) of
  // solve(ctx, column j).
  linalg::DenseMatrix solve_many(const common::Context& ctx,
                                 const linalg::DenseMatrix& b);

  // Adds the counters accumulated since construction into *stats and sets
  // stats->engine to key().
  void report(core::RunStats* stats) const;

  // Preconditioner introspection, delegated to the artifact; non-null
  // only for engines that build one (the sparsified engine exposes H here
  // for the facade's LaplacianRun::sparsifier field).
  const graph::Graph* sparsifier() const;
  bool tree_patched() const;

  // Rounds the prepare phase charged — 0 when the artifact was adopted
  // (the preprocessing happened in some earlier run, which already
  // reported it).
  std::int64_t preprocessing_rounds() const;

  const EngineOptions& options() const { return opt_; }

  // The installed artifact (null before factor()/adopt()), shareable with
  // other engines and the factorization cache.
  std::shared_ptr<const PreparedLaplacian> prepared() const {
    return prepared_;
  }
  // True when the installed artifact was prepared by this engine's own
  // factor() call rather than adopted.
  bool prepared_here() const { return prepared_here_; }

 private:
  EngineOptions opt_;
  std::shared_ptr<const PreparedLaplacian> prepared_;
  bool prepared_here_ = false;
  std::size_t iterations_ = 0;
  std::int64_t rounds_ = 0;
  std::size_t panels_ = 0;
};

// Configuration for SDD engines built by key (the LP layer's Newton
// systems): `network_n` is the BCC network size the round model charges
// against, `eps_hint` the accuracy the caller will request — the auto
// tuner uses it the way it uses eps for Laplacian engines.
struct SddEngineOptions {
  std::size_t network_n = 2;
  double eps_hint = 1e-12;
};

// Auto-tuner thresholds. Dimension/density reuse the PR 6 factorization
// dispatch constants (linalg/sparse_ldlt.h): at or above kSparseMinDim
// and at or below kSparseMaxDensity stored density the exact sparse path
// wins outright, and keeping the bar above 256 pins every historical
// n=256 anchor to the sparsified pipeline byte for byte. Below that,
// accuracy decides: at eps <= kAutoExactEps the Chebyshev iteration count
// no longer beats a direct factorization, so "auto" goes exact-dense.
inline constexpr double kAutoExactEps = 1e-10;

class EngineRegistry {
 public:
  using GraphFactory =
      std::function<std::unique_ptr<LaplacianEngine>(const EngineOptions&)>;
  using SddFactory = std::function<std::unique_ptr<SddEngine>(
      const common::Context&, linalg::DenseMatrix, const SddEngineOptions&)>;

  // The process-wide registry, with the built-in engines registered on
  // first use (an explicit bootstrap list in engine_registry.cpp — static
  // self-registration would be dead-stripped out of the static archive).
  static EngineRegistry& instance();

  // Registers (or replaces — latest wins, a seam for test doubles) the
  // factories behind `key`. `sdd_factory` may be null for engines that
  // only solve graph Laplacians.
  void register_engine(std::string key, GraphFactory graph_factory,
                       SddFactory sdd_factory = nullptr);

  bool registered(const std::string& key) const;

  // Registered concrete keys, sorted; "auto" is a selector, not an entry.
  std::vector<std::string> keys() const;

  // Maps a requested key to the concrete key that will serve an instance
  // with `n` unknowns, `density` stored-entry density and accuracy target
  // `eps`. "auto" (or empty) consults BCCLAP_ENGINE first, then the
  // tuner; any other key must be registered or this throws
  // std::invalid_argument listing the registered keys.
  std::string resolve(const std::string& requested, std::size_t n,
                      double density, double eps) const;

  // Builds the Laplacian engine behind a *concrete* key (callers resolve
  // "auto" first — the tuner needs the instance shape, which only the
  // caller has). Throws std::invalid_argument on unknown keys and on
  // "auto".
  std::unique_ptr<LaplacianEngine> create(const std::string& key,
                                          const EngineOptions& opt) const;

  // Builds an SDD engine for the dense matrix m. "auto" is resolved here
  // (from m's dimension, its scanned nonzero density and opt.eps_hint).
  // Throws std::invalid_argument on unknown keys and on keys registered
  // without an SDD factory.
  std::unique_ptr<SddEngine> create_sdd(const std::string& key,
                                        const common::Context& ctx,
                                        linalg::DenseMatrix m,
                                        const SddEngineOptions& opt) const;

  // The SDD factory create_sdd(key, ctx, m, opt) calls, with "auto"
  // resolved the same way from m and eps_hint. A caller that builds many
  // engines for systems whose tuner inputs cannot change (the LP layer's
  // Gram systems) resolves once and calls the factory per system. Throws
  // as create_sdd does.
  SddFactory sdd_factory(const std::string& key, const linalg::DenseMatrix& m,
                         double eps_hint) const;

  // The tuner, exposed for tests: exact-sparse at (n >= kSparseMinDim,
  // density <= kSparseMaxDensity), exact-dense at eps <= kAutoExactEps,
  // else sparsified-chebyshev. "cg" is never auto-selected.
  static std::string auto_select(std::size_t n, double density, double eps);

  // Stored-entry density of g's Laplacian, (n + 2m) / n^2 — the quantity
  // the tuner compares against kSparseMaxDensity.
  static double laplacian_density(const graph::Graph& g);

 private:
  struct Entry {
    GraphFactory graph_factory;
    SddFactory sdd_factory;
  };

  EngineRegistry() = default;

  // Returns a copy: a reference into entries_ could be invalidated by a
  // concurrent register_engine (latest-wins replacement, test seam).
  Entry entry_or_throw(const std::string& key) const;
  [[noreturn]] void throw_unknown_key(const std::string& key) const;

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Entry>> entries_;  // insertion order
};

}  // namespace bcclap::laplacian
