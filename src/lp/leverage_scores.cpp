#include "lp/leverage_scores.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/encoding.h"
#include "linalg/cholesky.h"
#include "linalg/jl_transform.h"

namespace bcclap::lp {

MatrixOracle dense_oracle(const common::Context& ctx,
                          const linalg::DenseMatrix& m) {
  MatrixOracle o;
  o.m = m.rows();
  o.n = m.cols();
  // The Gram factorization, M and M^T are shared by the closures; the
  // transpose is formed once (it also builds the Gram) and the
  // factorization is paid once, reused by every solve and panel.
  auto mat_t = std::make_shared<linalg::DenseMatrix>(m.transpose());
  linalg::DenseMatrix gram = mat_t->multiply(ctx, m);
  std::optional<linalg::LdltFactor> attempt =
      linalg::LdltFactor::factor(ctx, gram);
  if (!attempt) {
    // Semi-definite guard: tiny ridge.
    for (std::size_t i = 0; i < gram.rows(); ++i)
      gram(i, i) += 1e-12 * (gram(i, i) + 1.0);
    attempt = linalg::LdltFactor::factor(ctx, gram);
  }
  if (!attempt) {
    // A per-entry ridge cannot lift a zero pivot past the factor's
    // threshold, 1e-12 x the largest diagonal entry, when that entry is
    // huge (a zero column beside a 1e8 one). A max-diagonal ridge can,
    // but only at 1e-11: the SDD layer's 1e-12 x (max diag + 1) ridge
    // (prepare_sdd_dense_factor) lands on the threshold it raises.
    double scale = 0.0;
    for (std::size_t i = 0; i < gram.rows(); ++i)
      scale = std::max(scale, gram(i, i));
    for (std::size_t i = 0; i < gram.rows(); ++i)
      gram(i, i) += 1e-11 * (scale + 1.0);
    attempt = linalg::LdltFactor::factor(ctx, gram);
  }
  if (!attempt) {
    throw std::runtime_error(
        "lp::dense_oracle: M^T M is not factorizable even with a ridge");
  }
  auto factor =
      std::make_shared<const linalg::LdltFactor>(std::move(*attempt));
  auto mat = std::make_shared<linalg::DenseMatrix>(m);
  o.apply = [mat, ctx](const linalg::Vec& x) {
    return mat->multiply(ctx, x);
  };
  o.apply_t = [mat, ctx](const linalg::Vec& y) {
    return mat->multiply_transpose(ctx, y);
  };
  o.solve_gram = [factor](const linalg::Vec& y) {
    return factor->solve(y);
  };
  o.apply_many = [mat, ctx](const linalg::DenseMatrix& x) {
    return mat->multiply(ctx, x);
  };
  o.apply_t_many = [mat_t, ctx](const linalg::DenseMatrix& y) {
    return mat_t->multiply(ctx, y);
  };
  o.solve_gram_many = [factor, ctx](const linalg::DenseMatrix& y) {
    return factor->solve_many(ctx, y);
  };
  return o;
}

linalg::Vec leverage_scores_exact(const common::Context& ctx,
                                  const linalg::DenseMatrix& m) {
  const MatrixOracle o = dense_oracle(ctx, m);
  linalg::Vec sigma(o.m, 0.0);
  // sigma_i = row_i (M^T M)^{-1} row_i^T. Rows go through the factored
  // Gram in fixed-width panels — one batched substitution fan-out per
  // panel instead of one dispatch per row.
  constexpr std::size_t kRowPanel = 32;
  for (std::size_t base = 0; base < o.m; base += kRowPanel) {
    const std::size_t width = std::min(kRowPanel, o.m - base);
    linalg::DenseMatrix rows(o.n, width);
    for (std::size_t b = 0; b < width; ++b) {
      for (std::size_t j = 0; j < o.n; ++j) rows(j, b) = m(base + b, j);
    }
    const linalg::DenseMatrix z = o.solve_gram_many(rows);
    for (std::size_t b = 0; b < width; ++b) {
      double s = 0.0;
      for (std::size_t j = 0; j < o.n; ++j) s += rows(j, b) * z(j, b);
      sigma[base + b] = s;
    }
  }
  return sigma;
}

linalg::Vec leverage_scores_jl(const common::Context& ctx,
                               const MatrixOracle& oracle,
                               const LeverageOptions& opt,
                               bcc::RoundAccountant* acct) {
  const std::size_t k = linalg::jl_dimension(oracle.m, opt.eta,
                                             opt.jl_constant);
  const linalg::KaneNelsonSketch sketch(k, oracle.m, opt.sparsity, opt.seed);

  if (acct) {
    // Leader election (1 round) + seed broadcast: O(log^2 m) random bits.
    const std::int64_t bw = 2 * enc::id_bits(oracle.n) + 2;
    acct->charge("leverage/leader", 1);
    acct->charge_broadcast_bits(
        "leverage/seed",
        static_cast<std::int64_t>(sketch.seed_bits()), bw);
  }

  linalg::Vec sigma(oracle.m, 0.0);
  // The probes are independent; they run in batches whose boundaries
  // never depend on the thread count, and each batch's results accumulate
  // into sigma sequentially in probe order — bitwise identical at any
  // thread count AND at any batch width (the panel ops are column-wise
  // independent). A batched oracle pushes the whole batch through one
  // solve_many panel per outer iteration (p^(j) = M (M^T M)^{-1} M^T
  // Q^(j), Algorithm 6 line 5, columns j of one panel); otherwise probes
  // run one at a time fanned over the pool. probe_batch = 0 means one
  // full-width panel: a single Gram substitution fan-out for the whole
  // sketch instead of one per 16 probes.
  const std::size_t dim = sketch.sketch_dim();
  const std::size_t probe_batch =
      opt.probe_batch == 0 ? std::max<std::size_t>(dim, 1) : opt.probe_batch;
  const bool batched = oracle.batched();
  std::vector<linalg::Vec> batch(
      batched ? 0 : std::min<std::size_t>(probe_batch, dim));
  for (std::size_t base = 0; base < dim; base += probe_batch) {
    const std::size_t count = std::min(probe_batch, dim - base);
    linalg::DenseMatrix panel;
    if (batched) {
      linalg::DenseMatrix q(oracle.m, count);
      for (std::size_t b = 0; b < count; ++b)
        q.set_column(b, sketch.row(base + b));
      panel = oracle.apply_many(
          oracle.solve_gram_many(oracle.apply_t_many(q)));
    } else {
      ctx.parallel_for(0, count, [&](std::size_t b) {
        const linalg::Vec qj = sketch.row(base + b);
        const linalg::Vec mt_q = oracle.apply_t(qj);
        const linalg::Vec z = oracle.solve_gram(mt_q);
        batch[b] = oracle.apply(z);
      });
    }
    for (std::size_t b = 0; b < count; ++b) {
      for (std::size_t i = 0; i < oracle.m; ++i) {
        const double pji = batched ? panel(i, b) : batch[b][i];
        sigma[i] += pji * pji;
      }
      if (acct) {
        // Two matvecs (vector broadcasts) + one Gram solve per probe.
        const std::int64_t bw = 2 * enc::id_bits(oracle.n) + 2;
        const int bits = enc::real_bits(static_cast<double>(oracle.m), 1e-9);
        acct->charge_broadcast_bits("leverage/matvec", 2 * bits, bw);
        acct->charge("leverage/gram-solve", 1);
      }
    }
  }
  return sigma;
}

}  // namespace bcclap::lp
