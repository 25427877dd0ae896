// Pluggable solver-engine registry: the one place that maps a key to work.
//
// Every entry is a {prepare function, SDD factory} pair:
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
// A prepare function runs the per-topology work and returns the immutable
// PreparedLaplacian artifact (laplacian/prepared.h); the facade, the
// factorization cache and the solver service hold and apply that artifact
// directly. The SDD factory builds an SddEngine (bcc_solver.h) for the LP
// layer's Gram systems. A new backend plugs in by registering both and
// touches no dispatch code. The key is chosen per call — the `engine`
// field of LaplacianSolveOptions, lp::LpOptions and service::Request —
// and unknown keys throw std::invalid_argument listing the registered
// keys.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/context.h"
#include "graph/graph.h"
#include "laplacian/bcc_solver.h"
#include "laplacian/prepared.h"
#include "linalg/dense_matrix.h"

namespace bcclap::laplacian {

// Configuration for SDD engines built by key (the LP layer's Newton
// systems): `network_n` is the BCC network size the round model charges
// against, `eps_hint` the accuracy the caller will request — the auto
// tuner uses it the way it uses eps for Laplacian engines.
struct SddEngineOptions {
  std::size_t network_n = 2;
  double eps_hint = 1e-12;
};

// Auto-tuner thresholds. Dimension/density go through the factor
// dispatch's own rule (linalg::sparse_path_preferred): at or above
// kSparseMinDim and at or below kSparseMaxDensity stored density the
// exact sparse path wins outright, and keeping the bar above 256 pins
// every historical n=256 anchor to the sparsified pipeline byte for byte.
// Below that, accuracy decides: at eps <= kAutoExactEps the Chebyshev
// iteration count no longer beats a direct factorization, so "auto" goes
// exact-dense.
inline constexpr double kAutoExactEps = 1e-10;

class EngineRegistry {
 public:
  // The engine's prepare phase: all per-topology work (sparsify, order,
  // factor), honoring the prepare-time fields of EngineOptions. Returns a
  // non-null artifact; numerical failure is reported via its usable().
  using PrepareFn = std::function<std::shared_ptr<const PreparedLaplacian>(
      const common::Context&, const graph::Graph&, const EngineOptions&)>;
  using SddFactory = std::function<std::unique_ptr<SddEngine>(
      const common::Context&, linalg::DenseMatrix, const SddEngineOptions&)>;

  // The process-wide registry, with the built-in engines registered on
  // first use (an explicit bootstrap list in engine_registry.cpp — static
  // self-registration would be dead-stripped out of the static archive).
  static EngineRegistry& instance();

  // Registers (or replaces — latest wins, a seam for test doubles) the
  // functions behind `key`. `sdd_factory` may be null for engines that
  // only solve graph Laplacians.
  void register_engine(std::string key, PrepareFn prepare,
                       SddFactory sdd_factory = nullptr);

  bool registered(const std::string& key) const;

  // Registered concrete keys, sorted; "auto" is a selector, not an entry.
  std::vector<std::string> keys() const;

  // Maps a requested key to the concrete key that will serve an instance
  // with `n` unknowns, `density` stored-entry density and accuracy target
  // `eps`. "auto" (or empty) asks the tuner; any other key must be
  // registered or this throws std::invalid_argument listing the
  // registered keys.
  std::string resolve(const std::string& requested, std::size_t n,
                      double density, double eps) const;

  // Runs the prepare function behind a *concrete* key on g (callers
  // resolve "auto" first — the tuner needs the instance shape, which only
  // the caller has). Throws std::invalid_argument on unknown keys and on
  // "auto", std::runtime_error if the prepare function returns null.
  std::shared_ptr<const PreparedLaplacian> prepare(
      const std::string& key, const common::Context& ctx,
      const graph::Graph& g, const EngineOptions& opt) const;

  // Builds an SDD engine for the dense matrix m. "auto" is resolved here
  // (from m's dimension, its scanned nonzero density and opt.eps_hint).
  // Throws std::invalid_argument on unknown keys and on keys registered
  // without an SDD factory. The built-in engines throw
  // std::runtime_error when m does not factor even after their ridge
  // retry, and "sparsified-chebyshev" throws std::invalid_argument when m
  // is not SDD.
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

  // The tuner, exposed for tests: exact-sparse where
  // linalg::sparse_path_preferred(n, density) holds, exact-dense at
  // eps <= kAutoExactEps, else sparsified-chebyshev. "cg" is never
  // auto-selected.
  static std::string auto_select(std::size_t n, double density, double eps);

  // Stored-entry density of g's Laplacian, (n + 2m) / n^2 — the quantity
  // the tuner compares against kSparseMaxDensity.
  static double laplacian_density(const graph::Graph& g);

 private:
  struct Entry {
    PrepareFn prepare;
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
