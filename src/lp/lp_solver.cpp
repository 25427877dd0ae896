#include "lp/lp_solver.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/encoding.h"
#include "laplacian/engine.h"
#include "lp/project_mixed_ball.h"

namespace bcclap::lp {

namespace {

double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

// A^T D A into gram (n x n, overwritten), D given by its diagonal.
void assemble_gram_into(const linalg::CsrMatrix& a, const linalg::Vec& d,
                        linalg::DenseMatrix& gram) {
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < n; ++i) std::fill_n(gram.row_data(i), n, 0.0);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_index();
  const auto& vals = a.values();
  // Each entry adds (d_r a_ri) a_rj in ascending r; the factor d_r a_ri
  // is formed once per (r, i), the same product in the same order.
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t i = rp[r]; i < rp[r + 1]; ++i) {
      double* gi = gram.row_data(ci[i]);
      const double dv = d[r] * vals[i];
      for (std::size_t j = rp[r]; j < rp[r + 1]; ++j) gi[ci[j]] += dv * vals[j];
    }
  }
}

// The Gram-system engine factory of one lp_solve. A caller's
// opt.gram_factory is used as is. Otherwise opt.engine is
// resolved on the first system and that registry entry's SDD factory
// builds every system: the tuner's inputs cannot change within a solve
// (the dimension, eps_hint = 1e-12, and the stored density, which is A's
// column co-occurrence pattern because D > 0), so "auto" is resolved
// once instead of per Newton step.
GramSolverFactory gram_engines(const common::Context& ctx,
                               const LpProblem& prob, const LpOptions& opt) {
  if (opt.gram_factory) return opt.gram_factory;
  laplacian::SddEngineOptions eopt;
  eopt.network_n = prob.a.cols() + 1;
  eopt.eps_hint = 1e-12;  // the accuracy the Newton solves request below
  return [ctx, key = opt.engine, eopt,
          factory = laplacian::EngineRegistry::SddFactory()](
             const linalg::DenseMatrix& gram) mutable {
    if (!factory) {
      factory = laplacian::EngineRegistry::instance().sdd_factory(
          key, gram, eopt.eps_hint);
    }
    return factory(ctx, gram, eopt);
  };
}

// The Gram-system solver of one lp_solve: a single engine serves both
// path-following phases and the final restoration, refactored in place at
// every system. The factory builds a new engine only when none is held or
// the held one declines refactor (custom hooks that want one engine per
// system return engines that decline).
class GramSolver {
 public:
  explicit GramSolver(GramSolverFactory factory)
      : factory_(std::move(factory)) {}

  // Solves gram * X = rhs to relative residual eps as one counted panel,
  // adding the system's rounds to rounds(): the engine's rounds_charged()
  // delta across refactor and solve, or all of a fresh engine's.
  linalg::DenseMatrix solve(const linalg::DenseMatrix& gram,
                            const linalg::DenseMatrix& rhs, double eps) {
    std::int64_t before = engine_ ? engine_->rounds_charged() : 0;
    if (!engine_ || !engine_->refactor(gram)) {
      engine_ = factory_(gram);
      before = 0;
    }
    linalg::DenseMatrix x = engine_->solve_many(rhs, eps);
    ++panels_;
    rounds_ += engine_->rounds_charged() - before;
    return x;
  }

  // Gram panels solved so far (RunStats::panels bookkeeping).
  std::size_t panels() const { return panels_; }

  // Rounds of the systems solved so far.
  std::int64_t rounds() const { return rounds_; }

  // Registry key of the held engine (RunStats::engine); empty before the
  // first system.
  std::string key() const {
    return engine_ ? std::string(engine_->key()) : std::string();
  }

 private:
  GramSolverFactory factory_;
  std::unique_ptr<laplacian::SddEngine> engine_;
  std::size_t panels_ = 0;
  std::int64_t rounds_ = 0;
};

// Initial weights (Algorithm 9 line 1).
linalg::Vec initial_weights(const common::Context& ctx, const LpProblem& prob,
                            const LpOptions& opt) {
  const std::size_t m = prob.a.rows();
  if (opt.weights == WeightMode::kVanilla) return linalg::ones(m);
  // ComputeInitialWeights would be exact here; for the solver we start
  // from leverage scores of A (the p = 2 point of the homotopy) and let
  // the per-step warm-started refinement track the path, which is the
  // same fixed-point machinery with a cheaper entry point.
  const double c0 =
      static_cast<double>(prob.a.cols()) / (2.0 * static_cast<double>(m));
  linalg::Vec w = lewis_fixed_point(ctx, prob.a.to_dense(), lewis_p_for(m), 12);
  for (double& v : w) v = std::max(v + c0, c0);
  return w;
}

// One path-following run (Algorithm 10) shared by both phases. Every
// Newton step reuses the follower's workspace; nothing is rebuilt per step.
class PathFollower {
 public:
  PathFollower(const common::Context& ctx, const LpProblem& prob,
               const LpOptions& opt, const BarrierSet& barrier,
               GramSolver& grams, const linalg::Vec& cost,
               bcc::RoundAccountant& acct)
      : ctx_(ctx),
        prob_(prob),
        opt_(opt),
        barrier_(barrier),
        grams_(grams),
        cost_(cost),
        acct_(acct),
        m_(prob.a.rows()),
        n_(prob.a.cols()),
        grad_(m_),
        d_(m_),
        phi1_(m_),
        phi2_(m_),
        dx_(m_),
        ax_(n_),
        rhs_(n_, 1),
        gram_(n_, n_) {
    p_lewis_ = lewis_p_for(m_);
    c0_ = static_cast<double>(n_) / (2.0 * static_cast<double>(m_));
  }

  // Follows the path from t_start to t_end; x and w updated in place.
  // Returns false if centering stalls irrecoverably.
  bool follow(linalg::Vec& x, linalg::Vec& w, double t_start, double t_end,
              double final_tol, std::size_t* path_steps,
              std::size_t* newton_steps) {
    double t = t_start;
    double alpha = base_alpha();
    std::size_t steps = 0;
    while (t != t_end && steps < opt_.max_path_steps) {
      if (!center(x, w, t, opt_.centering_tol, newton_steps)) return false;
      const double t_next = median3((1.0 - alpha) * t, t_end,
                                    (1.0 + alpha) * t);
      if (opt_.steps == StepMode::kAdaptive) {
        // Probe the larger step; on centering failure halve and retry.
        double trial_alpha = alpha;
        double t_trial = t_next;
        x_save_ = x;
        w_save_ = w;
        bool ok = center(x, w, t_trial, opt_.centering_tol, newton_steps);
        while (!ok && trial_alpha > 1e-7) {
          x = x_save_;
          w = w_save_;
          trial_alpha /= 2.0;
          t_trial = median3((1.0 - trial_alpha) * t, t_end,
                            (1.0 + trial_alpha) * t);
          ok = center(x, w, t_trial, opt_.centering_tol, newton_steps);
        }
        if (!ok) return false;
        t = t_trial;
        alpha = std::min(trial_alpha * 2.0, 0.5);
      } else {
        t = t_next;
      }
      ++steps;
      charge_step_rounds();
    }
    if (path_steps) *path_steps += steps;
    // Final polish (Algorithm 10's trailing centering loop).
    for (std::size_t i = 0; i < 4; ++i) {
      if (center(x, w, t_end, final_tol, newton_steps)) break;
    }
    return t == t_end;
  }

 private:
  double base_alpha() const {
    const double scale = opt_.weights == WeightMode::kLewis
                             ? static_cast<double>(n_)
                             : static_cast<double>(m_);
    const double logm =
        std::log2(static_cast<double>(std::max<std::size_t>(m_, 4)));
    return opt_.alpha_constant / (std::sqrt(scale) * logm);
  }

  // Newton-centers x for f_t(x) = t cost^T x + sum_i w_i phi_i(x_i) over
  // A^T x = b, refreshing w each step in Lewis mode (Algorithm 11).
  bool center(linalg::Vec& x, linalg::Vec& w, double t, double tol,
              std::size_t* newton_steps) {
    // A vanilla centering that converged at (t, tol) left x centered there
    // and w untouched, and nothing has moved either since: running again
    // would recompute the same decrement and return after one step
    // without moving x. (Lewis mode refreshes w on convergence.)
    if (centered_ && t == centered_t_ && tol == centered_tol_) return true;
    centered_ = false;
    const auto& rp = prob_.a.row_ptr();
    const auto& ci = prob_.a.col_index();
    const auto& vals = prob_.a.values();
    double* rhs = rhs_.row_data(0);
    for (std::size_t it = 0; it < opt_.max_center_steps; ++it) {
      // Newton direction with equality constraints and infeasibility
      // correction (keeps A^T x = b against roundoff drift), with
      // H = diag(w phi''(x)) and D = H^{-1}:
      //   solve (A^T D A) lam = A^T D grad + (b - A^T x),
      //   dx = D (A lam - grad), so A^T dx = b - A^T x.
      // The barrier derivatives depend on x alone. A centering that
      // converged returns without moving x, so the next one (at a new t)
      // starts where the last pass ran; the pass reruns only when x is
      // not bitwise the x it last saw.
      if (phi_x_.size() != m_ ||
          std::memcmp(phi_x_.data(), x.data(), m_ * sizeof(double)) != 0) {
        barrier_.for_each_derivative(
            x, [&](std::size_t i, double phi1, double phi2) {
              phi1_[i] = phi1;
              phi2_[i] = phi2;
            });
        phi_x_ = x;
      }
      for (std::size_t i = 0; i < m_; ++i) {
        grad_[i] = t * cost_[i] + w[i] * phi1_[i];
        d_[i] = 1.0 / (w[i] * phi2_[i]);
      }
      // A^T (D grad) and A^T x in one pass over A's rows, each output
      // summed in ascending row order with CsrMatrix::multiply_transpose's
      // zero skip.
      std::fill_n(rhs, n_, 0.0);
      std::fill(ax_.begin(), ax_.end(), 0.0);
      for (std::size_t r = 0; r < m_; ++r) {
        const double hg = grad_[r] * d_[r];
        const double xr = x[r];
        if (hg != 0.0) {
          for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            rhs[ci[k]] += vals[k] * hg;
        }
        if (xr != 0.0) {
          for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            ax_[ci[k]] += vals[k] * xr;
        }
      }
      for (std::size_t j = 0; j < n_; ++j) rhs[j] += prob_.b[j] - ax_[j];
      assemble_gram_into(prob_.a, d_, gram_);
      // Newton systems route through the batched interface (one k = 1
      // panel per centering step) so every Gram solve in the pipeline is
      // a counted panel; per-column the engines are byte-identical to
      // their single-RHS path.
      const linalg::DenseMatrix lam = grams_.solve(gram_, rhs_, 1e-12);
      // dx = D (A lam - grad), row-parallel like CsrMatrix::multiply.
      const double* lam_data = lam.row_data(0);
      ctx_.parallel_for_chunks(
          0, m_, ctx_.grain(m_, prob_.a.nnz() / std::max<std::size_t>(m_, 1)),
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t r = lo; r < hi; ++r) {
              double s = 0.0;
              for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
                s += vals[k] * lam_data[ci[k]];
              dx_[r] = d_[r] * (s - grad_[r]);
            }
          });

      const double delta =
          std::sqrt(std::max(0.0, -linalg::dot(dx_, grad_)));
      if (newton_steps) ++*newton_steps;
      if (delta <= tol) {
        if (opt_.weights == WeightMode::kLewis) {
          refresh_weights(x, w, delta);
        } else {
          centered_ = true;
          centered_t_ = t;
          centered_tol_ = tol;
        }
        return true;
      }
      double step = std::min(1.0, 1.0 / (1.0 + delta));
      step = std::min(step, barrier_.max_feasible_step(x, dx_));
      if (step <= 1e-14) return false;
      linalg::axpy(x, step, dx_);
      if (opt_.weights == WeightMode::kLewis) refresh_weights(x, w, delta);
    }
    return false;
  }

  // Algorithm 11 lines 4-6: pull w toward the Lewis weights of A_x with a
  // mixed-norm-ball-projected move in log space.
  void refresh_weights(const linalg::Vec& x, linalg::Vec& w, double delta) {
    const linalg::Vec phi2 = barrier_.hessian_diag(x);
    // A_x = Phi''(x)^{-1/2} A, dense for the weight computation.
    linalg::DenseMatrix ax(m_, n_);
    const auto& rp = prob_.a.row_ptr();
    const auto& ci = prob_.a.col_index();
    const auto& vals = prob_.a.values();
    for (std::size_t r = 0; r < m_; ++r) {
      const double s = 1.0 / std::sqrt(phi2[r]);
      for (std::size_t kk = rp[r]; kk < rp[r + 1]; ++kk)
        ax(r, ci[kk]) = s * vals[kk];
    }
    LewisOptions lw = opt_.lewis;
    lw.max_iterations = std::min<std::size_t>(lw.max_iterations, 6);
    const linalg::Vec target =
        compute_apx_weights(ctx_, ax, p_lewis_, w, 0.1, lw);

    const double ck = 2.0 * std::log(4.0 * static_cast<double>(m_));
    if (!opt_.use_mixed_ball_update) {
      for (std::size_t i = 0; i < m_; ++i)
        w[i] = std::max(target[i] + 0.0, c0_);
      return;
    }
    const double big_r = 1.0 / (768.0 * ck * ck *
                                std::log(36.0 * 4.0 * ck *
                                         static_cast<double>(m_)));
    const double cnorm = 24.0 * std::sqrt(4.0 * ck);
    linalg::Vec v(m_), ball_l(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      v[i] = std::log(std::max(target[i], c0_)) -
             std::log(std::max(w[i], c0_));
      ball_l[i] = 1.0 / (cnorm * std::sqrt(std::max(w[i], c0_)));
    }
    // Potential gradient of Phi_eta (soft-max direction), eta = 1/(12R).
    const double eta = std::min(1.0 / (12.0 * big_r), 50.0);
    linalg::Vec a(m_);
    for (std::size_t i = 0; i < m_; ++i)
      a[i] = std::sinh(std::clamp(eta * v[i], -30.0, 30.0));
    const auto proj = project_mixed_ball(a, ball_l, 1e-10, &acct_);
    const double scale = (1.0 - 6.0 / (7.0 * ck)) * std::max(delta, 0.05);
    for (std::size_t i = 0; i < m_; ++i) {
      const double nw = std::exp(std::log(std::max(w[i], c0_)) +
                                 scale * proj.x[i]);
      w[i] = std::clamp(nw, c0_, 2.0);
    }
  }

  void charge_step_rounds() {
    // Per path step: O(1) vector broadcasts at O(log(mU/eps)) bits.
    const std::int64_t bw = 2 * enc::id_bits(std::max<std::size_t>(n_, 2)) + 2;
    const int bits = enc::real_bits(static_cast<double>(m_) / opt_.epsilon,
                                    opt_.epsilon);
    acct_.charge_broadcast_bits("lp/path-step", 4 * bits, bw);
  }

  common::Context ctx_;
  const LpProblem& prob_;
  const LpOptions& opt_;
  const BarrierSet& barrier_;
  GramSolver& grams_;
  const linalg::Vec& cost_;
  bcc::RoundAccountant& acct_;
  std::size_t m_;
  std::size_t n_;
  double p_lewis_ = 1.0;
  double c0_ = 0.0;
  // The (t, tol) of the last vanilla centering that converged, while x
  // and w are still where it left them.
  bool centered_ = false;
  double centered_t_ = 0.0;
  double centered_tol_ = 0.0;
  // Newton workspace: m-vectors grad, D, phi'(x), phi''(x) and dx;
  // n-vector A^T x; the n x 1 right-hand-side panel; the n x n Gram; the
  // x the barrier derivatives were evaluated at; the adaptive probe's
  // saved iterate.
  linalg::Vec grad_, d_, phi1_, phi2_, dx_, ax_;
  linalg::DenseMatrix rhs_, gram_;
  linalg::Vec phi_x_, x_save_, w_save_;
};

}  // namespace

linalg::DenseMatrix assemble_gram(const linalg::CsrMatrix& a,
                                  const linalg::Vec& d) {
  linalg::DenseMatrix gram(a.cols(), a.cols());
  assemble_gram_into(a, d, gram);
  return gram;
}

LpResult lp_solve(const common::Context& ctx, const LpProblem& prob,
                  const linalg::Vec& x0, const LpOptions& opt) {
  const std::size_t m = prob.a.rows();
  LpResult out;
  out.x = x0;

  bcc::RoundAccountant acct;
  double u_bound = 1.0;
  for (double v : prob.c) u_bound = std::max(u_bound, std::abs(v));
  for (std::size_t i = 0; i < m; ++i) {
    if (std::isfinite(prob.lower[i]))
      u_bound = std::max(u_bound, std::abs(prob.lower[i]));
    if (std::isfinite(prob.upper[i]))
      u_bound = std::max(u_bound, std::abs(prob.upper[i]));
  }

  const BarrierSet barrier(prob.lower, prob.upper);
  GramSolver grams(gram_engines(ctx, prob, opt));
  linalg::Vec w = initial_weights(ctx, prob, opt);

  // Phase 1: recenter x0. With d = -w .* phi'(x0), x0 is the exact t = 1
  // minimizer of t d^T x + sum w_i phi_i; following d's path down to t1
  // lands near the weighted analytic center (Algorithm 9 lines 2-3).
  const double t1 =
      opt.t_start_scale /
      (std::pow(static_cast<double>(m), 1.5) * u_bound * u_bound);
  const linalg::Vec phi1_x0 = barrier.gradient(x0);
  linalg::Vec d_cost(m);
  for (std::size_t i = 0; i < m; ++i) d_cost[i] = -w[i] * phi1_x0[i];

  PathFollower phase1(ctx, prob, opt, barrier, grams, d_cost, acct);
  if (!phase1.follow(out.x, w, 1.0, t1, opt.centering_tol,
                     &out.stats.iterations, &out.stats.steps)) {
    acct.charge("lp/gram-solve", grams.rounds());
    out.stats.rounds = acct.total();
    out.stats.panels = grams.panels();
    out.stats.engine = grams.key();
    return out;
  }

  // Phase 2: follow the true cost from t1 to t2 = 4 * sum(w) / epsilon.
  double w_sum = 0.0;
  for (double v : w) w_sum += v;
  const double t2 = 4.0 * std::max(w_sum, 1.0) / opt.epsilon;
  PathFollower phase2(ctx, prob, opt, barrier, grams, prob.c, acct);
  const bool ok = phase2.follow(out.x, w, t1, t2, opt.centering_tol / 4.0,
                                &out.stats.iterations, &out.stats.steps);
  // The Newton systems' rounds, charged in one sum; the restoration
  // solve's below are not added to the account.
  acct.charge("lp/gram-solve", grams.rounds());

  // Final feasibility restoration: centering can stop with a residual
  // A^T x - b of the order of the last Newton decrement; one weighted
  // least-squares correction removes it without leaving the barrier domain.
  {
    const linalg::Vec phi2 = barrier.hessian_diag(out.x);
    linalg::Vec d(m);
    for (std::size_t i = 0; i < m; ++i) d[i] = 1.0 / (w[i] * phi2[i]);
    linalg::Vec resid = prob.b;
    const auto ax = prob.a.multiply_transpose(out.x);
    for (std::size_t j = 0; j < resid.size(); ++j) resid[j] -= ax[j];
    const auto lam = grams.solve(assemble_gram(prob.a, d),
                                 linalg::DenseMatrix::from_columns({resid}),
                                 1e-12)
                         .column(0);
    const auto a_lam = prob.a.multiply(ctx, lam);
    linalg::Vec dx(m);
    for (std::size_t i = 0; i < m; ++i) dx[i] = d[i] * a_lam[i];
    const double step = barrier.max_feasible_step(out.x, dx, 0.999);
    linalg::axpy(out.x, step, dx);
  }

  out.converged = ok;
  out.objective = linalg::dot(prob.c, out.x);
  out.stats.rounds = acct.total();
  // Every Gram system went through the batched interface: phase panels
  // plus the final feasibility-restoration panel.
  out.stats.panels = grams.panels();
  // The concrete key that served the Gram systems (every system of the
  // run is built by the same factory).
  out.stats.engine = grams.key();
  return out;
}

}  // namespace bcclap::lp
