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
//    sparsifier + preconditioned Chebyshev. Used by the end-to-end pipeline
//    experiment (E12) and fidelity tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "bcc/round_accountant.h"
#include "common/context.h"
#include "linalg/dense_matrix.h"
#include "linalg/ldlt.h"
#include "linalg/vector_ops.h"

namespace bcclap::laplacian {

class SddEngine {
 public:
  virtual ~SddEngine() = default;
  // Solve M x = y to (at least) relative residual `eps`.
  virtual linalg::Vec solve(const linalg::Vec& y, double eps) = 0;

  // Batched multi-RHS solve: y is n x k, one right-hand side per column.
  // The base implementation is a sequential column loop over solve() —
  // engines with a real panel path (both engines below) override it with
  // one that factors/sparsifies once and fans the panel out, byte-identical
  // to the column loop (outputs and rounds) at any thread count.
  virtual linalg::DenseMatrix solve_many(const linalg::DenseMatrix& y,
                                         double eps);

  virtual std::int64_t rounds_charged() const = 0;

  // Registry key of the engine (laplacian/engine.h), e.g. "exact-dense";
  // empty for engines constructed outside the registry's vocabulary
  // (custom gram_factory hooks). The LP layer copies this into
  // RunStats::engine.
  virtual std::string_view key() const { return {}; }
};

// Analytical per-solve round cost of an exact SDD solve under the Lemma
// 5.1 / Theorem 1.3 model (sparsify once per phase — charged by the
// caller — then O(log(1/eps)) Chebyshev iterations of one broadcast
// each): shared by every exact engine so "exact-dense" and "exact-sparse"
// charge identical rounds and differ only in local arithmetic.
std::int64_t exact_sdd_solve_rounds(std::size_t network_n, double eps);

// The SDD layer's dense prepare phase, shared by the exact-dense engine
// and the sparsified engine's residual-guard fallback: dense LDL^T of M
// with a tiny Tikhonov ridge retry on (numerically) semi-definite inputs
// — the documented guard both call sites used to hand-roll. Returns an
// immutable, shareable factor (the shareability contract of
// linalg/cholesky.h); null only if even the ridged matrix fails.
std::shared_ptr<const linalg::LdltFactor> prepare_sdd_dense_factor(
    const common::Context& ctx, linalg::DenseMatrix m);

// Builds an engine for a concrete SDD matrix M (n x n dense), executing on
// ctx's pool; the sparsified engine draws its sparsifier randomness from
// ctx.seed(). The exact engine throws std::runtime_error when M does not
// factor even after the ridge retry; the sparsified engine throws
// std::invalid_argument when M is not SDD, and std::runtime_error from a
// solve whose dense fallback does not factor.
std::unique_ptr<SddEngine> make_exact_sdd_engine(const common::Context& ctx,
                                                 linalg::DenseMatrix m,
                                                 std::size_t network_n);
std::unique_ptr<SddEngine> make_sparsified_sdd_engine(
    const common::Context& ctx, linalg::DenseMatrix m);

}  // namespace bcclap::laplacian
