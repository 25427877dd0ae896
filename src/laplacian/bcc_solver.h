// SDD system solving for the LP layer (Lemma 5.1).
//
// The LP solver needs (A^T D A)^{-1} y for changing positive diagonals D.
// For the flow constraint matrix, A^T D A is SDD, so the paper's pipeline
// is: Gremban-reduce to a Laplacian on a 2(n-1)-vertex virtual graph, then
// run the BCC Laplacian solver (Theorem 1.3) on it.
//
// Two interchangeable engines:
//  - ExactSddEngine: dense LDL^T, zero noise. Rounds are charged with the
//    analytical cost model of Lemma 5.1 (sparsify + Chebyshev). Default for
//    the IPM benches, where wall-clock matters.
//  - SparsifiedSddEngine: the real pipeline — Gremban reduction + spectral
//    sparsifier + preconditioned Chebyshev, applied through the prepared
//    sparsified-chebyshev artifact (laplacian/prepared.h). Used by the
//    end-to-end pipeline experiment (E12) and fidelity tests.
//
// Every engine implements one solve body, the panel one (solve_many); a
// single right-hand side is a k = 1 panel.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/context.h"
#include "linalg/dense_matrix.h"
#include "linalg/ldlt.h"
#include "linalg/vector_ops.h"

namespace bcclap::laplacian {

class SddEngine {
 public:
  virtual ~SddEngine() = default;

  // Batched solve M X = Y to (at least) relative residual `eps` per
  // column: y is n x k, one right-hand side per column. The engine's one
  // solve body; a k-column panel is byte-identical (outputs and rounds) to
  // k one-column panels at any thread count.
  virtual linalg::DenseMatrix solve_many(const linalg::DenseMatrix& y,
                                         double eps) = 0;

  // Single right-hand side: y as an n x 1 panel through solve_many,
  // returning column 0. Virtual only so forwarding wrappers can time it.
  virtual linalg::Vec solve(const linalg::Vec& y, double eps);

  // Total rounds of every solve since construction, across refactors;
  // callers that keep an engine charge the difference around a solve.
  virtual std::int64_t rounds_charged() const = 0;

  // Re-prepares the engine in place for a new matrix m, reusing what it
  // allocated for the old one. On true the engine is interchangeable with
  // the one its factory would build for m: every later solve returns the
  // same bytes and adds the same rounds to rounds_charged(). On false the
  // engine must not be solved with again; the caller builds a fresh one
  // (whose construction reports the failure). The default declines
  // without touching the engine, so a forwarding wrapper that does not
  // override it keeps its callers at one engine per matrix.
  virtual bool refactor(const linalg::DenseMatrix& m);

  // Registry key of the engine (laplacian/engine.h), e.g. "exact-dense";
  // empty for engines constructed outside the registry's vocabulary
  // (custom gram_factory hooks). The LP layer copies this into
  // RunStats::engine.
  virtual std::string_view key() const { return {}; }
};

// Rounds of one broadcast of an SDD-solve vector under the Lemma 5.1 /
// Theorem 1.3 model: O(log(n / eps)) bits per coordinate over the
// network's O(log n) bandwidth. Every SDD engine's round charge is a
// multiple of this.
std::int64_t sdd_broadcast_rounds(std::size_t network_n, double eps);

// Analytical per-solve round cost of an exact SDD solve under the Lemma
// 5.1 / Theorem 1.3 model (sparsify once per phase — charged by the
// caller — then O(log(1/eps)) Chebyshev iterations of one broadcast
// each): shared by every exact engine so "exact-dense" and "exact-sparse"
// charge identical rounds and differ only in local arithmetic.
std::int64_t exact_sdd_solve_rounds(std::size_t network_n, double eps);

// The SDD engines' numerical guard for (numerically) semi-definite
// inputs: adds a tiny Tikhonov ridge, 1e-12 x (max diagonal + 1), to m's
// diagonal. Applied once, before the single factorization retry.
void add_sdd_ridge(linalg::DenseMatrix& m);

// The SDD layer's dense prepare phase, shared by the exact-dense engine
// and the sparsified engine's residual-guard fallback: dense LDL^T of M
// with one add_sdd_ridge retry on (numerically) semi-definite inputs.
// Returns an immutable, shareable factor (the shareability contract of
// linalg/cholesky.h); null only if even the ridged matrix fails.
std::shared_ptr<const linalg::LdltFactor> prepare_sdd_dense_factor(
    const common::Context& ctx, const linalg::DenseMatrix& m);

// Builds an engine for a concrete SDD matrix M (n x n dense), executing on
// ctx's pool; the sparsified engine draws its sparsifier randomness from
// ctx.seed(). The exact engine throws std::runtime_error when M does not
// factor even after the ridge retry; the sparsified engine throws
// std::invalid_argument when M is not SDD, and std::runtime_error from a
// solve whose dense fallback does not factor. The exact engine implements
// refactor with the same ridge policy in its own storage, returning false
// where its construction would throw; the sparsified engine declines.
std::unique_ptr<SddEngine> make_exact_sdd_engine(const common::Context& ctx,
                                                 linalg::DenseMatrix m,
                                                 std::size_t network_n);
std::unique_ptr<SddEngine> make_sparsified_sdd_engine(
    const common::Context& ctx, linalg::DenseMatrix m);

}  // namespace bcclap::laplacian
