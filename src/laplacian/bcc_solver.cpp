#include "laplacian/bcc_solver.h"

#include <cmath>
#include <stdexcept>

#include "common/context.h"
#include "common/encoding.h"
#include "laplacian/sdd_reduction.h"
#include "laplacian/solver.h"
#include "linalg/cholesky.h"

namespace bcclap::laplacian {

linalg::DenseMatrix SddEngine::solve_many(const linalg::DenseMatrix& y,
                                          double eps) {
  linalg::DenseMatrix x(y.rows(), y.cols());
  for (std::size_t j = 0; j < y.cols(); ++j)
    x.set_column(j, solve(y.column(j), eps));
  return x;
}

std::int64_t exact_sdd_solve_rounds(std::size_t network_n, double eps) {
  const double safe = std::max(eps, 1e-12);
  const double logn = std::log2(static_cast<double>(network_n));
  const std::int64_t iters =
      static_cast<std::int64_t>(
          std::ceil(std::sqrt(3.0) * std::log2(2.0 / safe))) +
      1;
  const std::int64_t bits =
      enc::real_bits(static_cast<double>(network_n) / safe, safe);
  return iters *
         enc::rounds_for_bits(bits, static_cast<std::int64_t>(2 * logn) + 2);
}

std::shared_ptr<const linalg::LdltFactor> prepare_sdd_dense_factor(
    const common::Context& ctx, linalg::DenseMatrix m) {
  auto factor = linalg::LdltFactor::factor(ctx, m);
  if (!factor) {
    // M may be only positive semi-definite in degenerate cases; add a
    // tiny Tikhonov ridge and retry (documented numerical guard).
    const std::size_t n = m.rows();
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, m(i, i));
    for (std::size_t i = 0; i < n; ++i) m(i, i) += 1e-12 * (scale + 1.0);
    factor = linalg::LdltFactor::factor(ctx, m);
  }
  if (!factor) return nullptr;
  return std::make_shared<const linalg::LdltFactor>(std::move(*factor));
}

namespace {

class ExactSddEngine final : public SddEngine {
 public:
  ExactSddEngine(const common::Context& ctx, linalg::DenseMatrix m,
                 std::size_t network_n)
      : ctx_(ctx),
        network_n_(std::max<std::size_t>(network_n, 2)),
        factor_(prepare_sdd_dense_factor(ctx, std::move(m))) {
    if (!factor_) {
      throw std::runtime_error(
          "exact-dense SDD engine: matrix does not factor, even with a ridge");
    }
  }

  linalg::Vec solve(const linalg::Vec& y, double eps) override {
    charge_solve(eps);
    return factor_->solve(y);
  }

  linalg::DenseMatrix solve_many(const linalg::DenseMatrix& y,
                                 double eps) override {
    // The factorization is shared; the panel fans the k substitutions out
    // over the pool. The model still charges per right-hand side, so the
    // rounds match k sequential solves exactly.
    for (std::size_t j = 0; j < y.cols(); ++j) charge_solve(eps);
    return factor_->solve_many(ctx_, y);
  }

  std::int64_t rounds_charged() const override { return rounds_; }

  std::string_view key() const override { return "exact-dense"; }

 private:
  // Analytical round model (Lemma 5.1 / Theorem 1.3): one sparsification
  // (preprocessing) has already been charged per path-following phase by
  // the caller; each solve costs O(log(1/eps) log(n/eps)) rounds.
  void charge_solve(double eps) {
    rounds_ += exact_sdd_solve_rounds(network_n_, eps);
  }

  common::Context ctx_;
  std::size_t network_n_;
  std::shared_ptr<const linalg::LdltFactor> factor_;
  std::int64_t rounds_ = 0;
};

class SparsifiedSddEngine final : public SddEngine {
 public:
  SparsifiedSddEngine(const common::Context& ctx, linalg::DenseMatrix m)
      : ctx_(ctx), matrix_(std::move(m)) {
    reduction_ = gremban_reduce(matrix_);
    if (!reduction_.valid) {
      throw std::invalid_argument(
          "sparsified-chebyshev SDD engine: matrix is not SDD");
    }
    sparsify::SparsifyOptions opt;
    opt.epsilon = 0.5;
    // Gremban virtual graphs here are small (2(n-1) vertices) and rebuilt
    // on every IPM Newton step; a 2-spanner bundle keeps the per-step cost
    // bounded (bench-scale constant; see DESIGN.md section 6).
    opt.k = 2;
    opt.t = 2;
    solver_ = std::make_unique<SparsifiedLaplacianSolver>(
        ctx_, reduction_.virtual_graph, opt);
  }

  linalg::Vec solve(const linalg::Vec& y, double eps) override {
    if (solver_->usable() && !use_fallback_) {
      SolveStats stats;
      const auto x12 = solver_->solve(lift_rhs(y), eps, &stats);
      rounds_ += stats.rounds;
      auto x = project_solution(x12);
      // Residual guard: IPM-generated systems near the path's end have
      // weight spreads beyond double's reach through the Laplacian route;
      // detect and switch to the dense SDD factorization (LDL^T on a
      // diagonally dominant matrix is stable at any scaling).
      if (residual_ok(x, y, eps)) return x;
    }
    use_fallback_ = true;
    ensure_fallback();
    return fallback_->solve(y);
  }

  linalg::DenseMatrix solve_many(const linalg::DenseMatrix& y,
                                 double eps) override {
    const std::size_t k = y.cols();
    linalg::DenseMatrix x(y.rows(), k);
    if (k == 0) return x;
    // Columns [0, checked) passed the residual guard on the sparsified
    // path; the rest (first guard failure onward — the sequential loop's
    // sticky use_fallback_) go through the dense factorization.
    std::size_t checked = 0;
    if (solver_->usable() && !use_fallback_) {
      // One batched sparsified attempt covers the whole panel; the guard
      // then walks columns in order, replaying the sequential loop's
      // charging: every attempted column (passing or first-failing) costs
      // its single-RHS rounds, columns after the first failure cost none.
      SolveStats stats;
      const auto x12 = solver_->solve_many(lift_rhs_many(y), eps, &stats);
      const auto cand = project_solution_many(x12);
      const std::int64_t per_col = stats.rounds / static_cast<std::int64_t>(k);
      while (checked < k) {
        rounds_ += per_col;
        const linalg::Vec xc = cand.column(checked);
        if (!residual_ok(xc, y.column(checked), eps)) break;
        x.set_column(checked, xc);
        ++checked;
      }
      if (checked == k) return x;
    }
    use_fallback_ = true;
    ensure_fallback();
    linalg::DenseMatrix rest(y.rows(), k - checked);
    for (std::size_t j = checked; j < k; ++j)
      rest.set_column(j - checked, y.column(j));
    const linalg::DenseMatrix xr = fallback_->solve_many(ctx_, rest);
    for (std::size_t j = checked; j < k; ++j)
      x.set_column(j, xr.column(j - checked));
    return x;
  }

  std::int64_t rounds_charged() const override {
    return rounds_ + solver_->preprocessing_rounds();
  }

  std::string_view key() const override { return "sparsified-chebyshev"; }

 private:
  bool residual_ok(const linalg::Vec& x, const linalg::Vec& y,
                   double eps) const {
    const auto r = linalg::sub(matrix_.multiply(ctx_, x), y);
    const double rel = linalg::norm2(r) / std::max(linalg::norm2(y), 1e-300);
    return rel <= std::max(eps * 10.0, 1e-6);
  }

  void ensure_fallback() {
    if (fallback_) return;
    fallback_ = prepare_sdd_dense_factor(ctx_, matrix_);
    if (!fallback_) {
      throw std::runtime_error(
          "sparsified-chebyshev SDD engine: dense fallback does not factor, "
          "even with a ridge");
    }
  }

  common::Context ctx_;
  linalg::DenseMatrix matrix_;
  SddReduction reduction_;
  std::unique_ptr<SparsifiedLaplacianSolver> solver_;
  std::shared_ptr<const linalg::LdltFactor> fallback_;
  bool use_fallback_ = false;
  std::int64_t rounds_ = 0;
};

}  // namespace

std::unique_ptr<SddEngine> make_exact_sdd_engine(const common::Context& ctx,
                                                 linalg::DenseMatrix m,
                                                 std::size_t network_n) {
  return std::make_unique<ExactSddEngine>(ctx, std::move(m), network_n);
}

std::unique_ptr<SddEngine> make_sparsified_sdd_engine(
    const common::Context& ctx, linalg::DenseMatrix m) {
  return std::make_unique<SparsifiedSddEngine>(ctx, std::move(m));
}

}  // namespace bcclap::laplacian
