// "cg": Jacobi-preconditioned conjugate gradient on the distributed
// matvec — the ablation-A2 baseline as a first-class engine. One L_G
// apply per iteration, charged with the same per-iteration broadcast
// model as the Chebyshev solve (Theorem 1.3's matvec accounting), but no
// sparsifier preprocessing. Never auto-selected: without the
// preconditioner its iteration count scales with sqrt(kappa(L_G)), so it
// exists for explicit requests (baselines, sanity checks, ablations).
// The iteration itself lives in the prepared artifact (PreparedCg,
// laplacian/prepared.cpp); this TU keeps only the registration and the
// SDD-side CG, which has no graph artifact to share.
//
// Accuracy note: CG's stopping rule is the 2-norm relative residual at
// EngineOptions::eps, not the energy norm of the Chebyshev contract —
// the usual baseline convention (tests compare at matching eps).
#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/encoding.h"
#include "laplacian/engine.h"
#include "laplacian/engines/builtin.h"
#include "linalg/cg.h"

namespace bcclap::laplacian::engines {

namespace {

// SDD-side CG: solves M x = y against the dense-stored SDD matrix with a
// Jacobi preconditioner, charging one broadcast per iteration under the
// same network model the exact SDD engines use.
class CgSddEngine final : public SddEngine {
 public:
  CgSddEngine(const common::Context& ctx, linalg::DenseMatrix m,
              std::size_t network_n)
      : ctx_(ctx),
        matrix_(std::move(m)),
        network_n_(std::max<std::size_t>(network_n, 2)) {
    diag_.assign(matrix_.rows(), 0.0);
    for (std::size_t i = 0; i < matrix_.rows(); ++i) diag_[i] = matrix_(i, i);
  }

  linalg::Vec solve(const linalg::Vec& y, double eps) override {
    const linalg::LinearOperator apply_a = [&](const linalg::Vec& x) {
      return matrix_.multiply(ctx_, x);
    };
    const linalg::LinearOperator precond = [&](const linalg::Vec& r) {
      linalg::Vec z(r.size());
      for (std::size_t i = 0; i < r.size(); ++i)
        z[i] = diag_[i] > 0.0 ? r[i] / diag_[i] : r[i];
      return z;
    };
    const auto res = linalg::conjugate_gradient(
        apply_a, y, eps, 4 * matrix_.rows() + 128, &precond);
    charge(res.iterations, eps);
    return res.x;
  }

  std::int64_t rounds_charged() const override { return rounds_; }

  std::string_view key() const override { return "cg"; }

 private:
  void charge(std::size_t iterations, double eps) {
    const double safe = std::max(eps, 1e-12);
    const std::int64_t bits =
        enc::real_bits(static_cast<double>(network_n_) / safe, safe);
    const std::int64_t bw =
        static_cast<std::int64_t>(
            2 * std::log2(static_cast<double>(network_n_))) +
        2;
    rounds_ += static_cast<std::int64_t>(iterations) *
               enc::rounds_for_bits(bits, bw);
  }

  common::Context ctx_;
  linalg::DenseMatrix matrix_;
  std::vector<double> diag_;
  std::size_t network_n_;
  std::int64_t rounds_ = 0;
};

}  // namespace

void register_cg(EngineRegistry& registry) {
  registry.register_engine(
      "cg",
      [](const common::Context& ctx, const graph::Graph& g,
         const EngineOptions&) { return prepare_cg(ctx, g); },
      [](const common::Context& ctx, linalg::DenseMatrix m,
         const SddEngineOptions& opt) {
        return std::make_unique<CgSddEngine>(ctx, std::move(m),
                                             opt.network_n);
      });
}

}  // namespace bcclap::laplacian::engines
