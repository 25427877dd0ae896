// "exact-sparse": grounded sparse CSC LDL^T per connected component
// (linalg/sparse_ldlt.h with the sparse backend pinned — min-degree
// ordering, simplicial sweep, dense supernodal tail). Exact like
// "exact-dense" but with O(n + fill) storage; the auto-tuner's pick for
// large sparse instances. Charges no BCC rounds on the graph side (same
// globally-known-topology model as exact-dense); the SDD side charges the
// analytic exact-solve model so "exact-dense" and "exact-sparse" are
// round-identical and differ only in local arithmetic.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "laplacian/engine.h"
#include "laplacian/engines/builtin.h"
#include "linalg/csc_matrix.h"
#include "linalg/sparse_ldlt.h"

namespace bcclap::laplacian::engines {

namespace {

// SDD engine on the sparse factorization: the dense-stored SDD matrix is
// scanned into its upper triangle once and factored on the CSC path.
// Mirrors ExactSddEngine (bcc_solver.cpp) in every contract — Tikhonov
// ridge retry on semi-definite inputs, std::runtime_error when even the
// ridged matrix fails, per-right-hand-side round charging via the shared
// exact model — so the two exact keys are interchangeable to the LP
// layer.
class ExactSparseSddEngine final : public SddEngine {
 public:
  ExactSparseSddEngine(const common::Context& ctx, linalg::DenseMatrix m,
                       std::size_t network_n)
      : ctx_(ctx), network_n_(std::max<std::size_t>(network_n, 2)) {
    factor_ = linalg::SparseLdltFactor::factor(ctx, upper_triangle(m));
    if (!factor_) {
      const std::size_t n = m.rows();
      double scale = 0.0;
      for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, m(i, i));
      for (std::size_t i = 0; i < n; ++i) m(i, i) += 1e-12 * (scale + 1.0);
      factor_ = linalg::SparseLdltFactor::factor(ctx, upper_triangle(m));
    }
    if (!factor_) {
      throw std::runtime_error(
          "exact-sparse SDD engine: matrix does not factor, even with a "
          "ridge");
    }
  }

  linalg::Vec solve(const linalg::Vec& y, double eps) override {
    rounds_ += exact_sdd_solve_rounds(network_n_, eps);
    return factor_->solve(y);
  }

  linalg::DenseMatrix solve_many(const linalg::DenseMatrix& y,
                                 double eps) override {
    for (std::size_t j = 0; j < y.cols(); ++j)
      rounds_ += exact_sdd_solve_rounds(network_n_, eps);
    return factor_->solve_many(ctx_, y);
  }

  std::int64_t rounds_charged() const override { return rounds_; }

  std::string_view key() const override { return "exact-sparse"; }

 private:
  static linalg::CscSymmetricMatrix upper_triangle(
      const linalg::DenseMatrix& m) {
    const std::size_t n = m.rows();
    std::vector<linalg::Triplet> trips;
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = m.row_data(i);
      for (std::size_t j = i; j < n; ++j)
        if (row[j] != 0.0) trips.push_back({i, j, row[j]});
    }
    return linalg::CscSymmetricMatrix(n, std::move(trips));
  }

  common::Context ctx_;
  std::optional<linalg::SparseLdltFactor> factor_;
  std::size_t network_n_;
  std::int64_t rounds_ = 0;
};

}  // namespace

void register_exact_sparse(EngineRegistry& registry) {
  registry.register_engine(
      "exact-sparse",
      [](const common::Context& ctx, const graph::Graph& g,
         const EngineOptions&) {
        return prepare_exact(ctx, g, linalg::FactorMode::kForceSparse,
                             "exact-sparse");
      },
      [](const common::Context& ctx, linalg::DenseMatrix m,
         const SddEngineOptions& opt) {
        return std::make_unique<ExactSparseSddEngine>(ctx, std::move(m),
                                                      opt.network_n);
      });
}

}  // namespace bcclap::laplacian::engines
