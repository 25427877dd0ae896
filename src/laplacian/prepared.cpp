#include "laplacian/prepared.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bcc/network.h"
#include "common/encoding.h"
#include "graph/laplacian.h"
#include "linalg/cg.h"
#include "linalg/chebyshev.h"
#include "linalg/cholesky.h"

namespace bcclap::laplacian {

namespace {

// Spanning forest edges of g (BFS per component); used to patch a
// sparsifier that lost connectivity within some component of G.
std::vector<graph::EdgeId> spanning_forest(const graph::Graph& g) {
  std::vector<graph::EdgeId> forest;
  std::vector<bool> seen(g.num_vertices(), false);
  for (graph::VertexId root = 0; root < g.num_vertices(); ++root) {
    if (seen[root]) continue;
    std::queue<graph::VertexId> q;
    q.push(root);
    seen[root] = true;
    while (!q.empty()) {
      const auto v = q.front();
      q.pop();
      for (graph::EdgeId e : g.incident(v)) {
        const auto u = g.other_endpoint(e, v);
        if (!seen[u]) {
          seen[u] = true;
          forest.push_back(e);
          q.push(u);
        }
      }
    }
  }
  return forest;
}

// Removes each column's per-component mean (projection onto range(L_G)).
void remove_component_means(linalg::DenseMatrix& x,
                            const std::vector<std::size_t>& labels) {
  std::size_t k = 0;
  for (std::size_t l : labels) k = std::max(k, l + 1);
  std::vector<std::size_t> count(k, 0);
  for (std::size_t l : labels) ++count[l];
  std::vector<double> sum(k);
  for (std::size_t j = 0; j < x.cols(); ++j) {
    std::fill(sum.begin(), sum.end(), 0.0);
    for (std::size_t i = 0; i < x.rows(); ++i) sum[labels[i]] += x(i, j);
    for (std::size_t i = 0; i < x.rows(); ++i)
      x(i, j) -= sum[labels[i]] / static_cast<double>(count[labels[i]]);
  }
}

// Rounds of one distributed L_G matvec (Theorem 1.3): every node
// broadcasts one vector coordinate at O(log(n U / eps)) bits, U the weight
// bound. One per iteration of both iterative engines.
std::int64_t matvec_rounds(const graph::Graph& g, double weight_bound,
                           std::int64_t bandwidth, double eps) {
  const int bits = enc::real_bits(
      static_cast<double>(g.num_vertices()) * weight_bound, eps);
  return enc::rounds_for_bits(bits, bandwidth);
}

// Approximate resident bytes of a graph copy: the edge list plus the
// incidence lists (2 entries per edge, one header per vertex).
std::size_t graph_bytes(const graph::Graph& g) {
  return g.num_edges() * (sizeof(graph::Edge) + 2 * sizeof(graph::EdgeId)) +
         g.num_vertices() * sizeof(std::vector<graph::EdgeId>);
}

// ---- exact engines -------------------------------------------------------

class PreparedExact final : public PreparedLaplacian {
 public:
  PreparedExact(const common::Context& ctx, const graph::Graph& g,
                linalg::FactorMode mode, std::string_view engine_key)
      : key_(engine_key),
        n_(g.num_vertices()),
        factor_(linalg::ComponentLaplacianFactor::factor(
            ctx, graph::laplacian(g), mode)) {}

  std::string_view engine_key() const override { return key_; }
  bool usable() const override { return factor_.has_value(); }
  std::size_t dim() const override { return n_; }

  std::size_t dense_factors() const override {
    return factor_ ? factor_->dense_factor_count() : 0;
  }
  std::size_t sparse_factors() const override {
    return factor_ ? factor_->sparse_factor_count() : 0;
  }
  linalg::SparseFactorPhases factor_phases() const override {
    return factor_ ? factor_->factor_phases() : linalg::SparseFactorPhases{};
  }
  std::size_t resident_bytes() const override {
    return factor_ ? factor_->resident_bytes() : 0;
  }

 private:
  linalg::DenseMatrix apply_panel(const common::Context& ctx,
                                  const linalg::DenseMatrix& b,
                                  const EngineOptions&,
                                  core::RunStats&) const override {
    return factor_->solve_many(ctx, b);
  }

  std::string key_;
  std::size_t n_;
  std::optional<linalg::ComponentLaplacianFactor> factor_;
};

// ---- sparsified + Chebyshev (the paper pipeline) -------------------------

class PreparedSparsifiedChebyshev final : public PreparedLaplacian {
 public:
  PreparedSparsifiedChebyshev(const common::Context& ctx,
                              const graph::Graph& g,
                              const sparsify::SparsifyOptions& opt)
      : g_(g) {
    bandwidth_ = bcc::Network::default_bandwidth(g_.num_vertices());
    bcc::Network net(bcc::Model::kBroadcastCongest, g_, bandwidth_, ctx);
    auto sp = sparsify::spectral_sparsify(ctx, g_, opt, net);
    preprocessing_rounds_ = sp.stats.rounds;
    h_ = std::move(sp.sparsifier);
    g_components_ = g_.component_labels();
    weight_bound_ = std::max({g_.max_weight(), h_.max_weight(), 1.0});

    if (h_.num_components() > g_.num_components()) {
      // Guard: with bench-scale bundle constants the sparsifier can lose
      // connectivity; union a spanning forest of G (each forest edge is
      // one broadcast, <= n-1 rounds) and refactor.
      tree_patched_ = true;
      for (graph::EdgeId e : spanning_forest(g_)) {
        const auto& ed = g_.edge(e);
        if (!h_.find_edge(ed.u, ed.v)) h_.add_edge(ed.u, ed.v, ed.weight);
      }
      net.charge("laplacian/tree-patch",
                 static_cast<std::int64_t>(g_.num_vertices()));
      preprocessing_rounds_ += static_cast<std::int64_t>(g_.num_vertices());
    }
    h_factor_ =
        linalg::ComponentLaplacianFactor::factor(ctx, graph::laplacian(h_));
    if (!h_factor_) {
      // Extreme weight spreads (IPM-generated virtual graphs) can defeat
      // the sparsifier factorization numerically; fall back to
      // preconditioning with G itself. Correctness is unchanged
      // (kappa = 1), only the speedup claim is forfeited for this
      // instance.
      tree_patched_ = true;
      h_ = g_;
      h_factor_ =
          linalg::ComponentLaplacianFactor::factor(ctx, graph::laplacian(h_));
    }
  }

  std::string_view engine_key() const override {
    return "sparsified-chebyshev";
  }
  bool usable() const override { return h_factor_.has_value(); }
  std::size_t dim() const override { return g_.num_vertices(); }

  const graph::Graph* sparsifier() const override { return &h_; }
  bool tree_patched() const override { return tree_patched_; }
  std::int64_t preprocessing_rounds() const override {
    return preprocessing_rounds_;
  }
  std::size_t dense_factors() const override {
    return h_factor_ ? h_factor_->dense_factor_count() : 0;
  }
  std::size_t sparse_factors() const override {
    return h_factor_ ? h_factor_->sparse_factor_count() : 0;
  }
  linalg::SparseFactorPhases factor_phases() const override {
    return h_factor_ ? h_factor_->factor_phases()
                     : linalg::SparseFactorPhases{};
  }
  std::size_t sparsify_count() const override { return 1; }
  std::size_t resident_bytes() const override {
    return graph_bytes(g_) + graph_bytes(h_) +
           g_components_.size() * sizeof(std::size_t) +
           (h_factor_ ? h_factor_->resident_bytes() : 0);
  }

 private:
  linalg::DenseMatrix apply_panel(const common::Context& ctx,
                                  const linalg::DenseMatrix& b,
                                  const EngineOptions& opt,
                                  core::RunStats& counters) const override {
    linalg::DenseMatrix rhs = b;
    remove_component_means(rhs, g_components_);

    const auto apply_a = [&](const linalg::DenseMatrix& x) {
      return graph::apply_laplacian_many(ctx, g_, x);
    };
    // B = (3/2) L_H  =>  B^{-1} R = (2/3) L_H^+ R, one panel solve per
    // iteration shared by every column.
    const auto solve_b = [&](const linalg::DenseMatrix& r) {
      linalg::DenseMatrix z = h_factor_->solve_many(ctx, r);
      double* zd = z.data();
      for (std::size_t i = 0; i < z.rows() * z.cols(); ++i) zd[i] *= 2.0 / 3.0;
      return z;
    };
    auto res = linalg::preconditioned_chebyshev_many(apply_a, solve_b, rhs,
                                                     3.0, opt.eps);

    // One L_G matvec broadcast per iteration per column: a k-wide panel
    // costs k x the single-column rounds (the model charges
    // communication; the batching amortizes wall time only).
    counters.iterations = res.iterations;
    counters.rounds = static_cast<std::int64_t>(b.cols()) *
                      static_cast<std::int64_t>(res.iterations) *
                      matvec_rounds(g_, weight_bound_, bandwidth_, opt.eps);
    remove_component_means(res.x, g_components_);
    return std::move(res.x);
  }

  graph::Graph g_;
  graph::Graph h_;
  std::vector<std::size_t> g_components_;
  std::optional<linalg::ComponentLaplacianFactor> h_factor_;
  std::int64_t preprocessing_rounds_ = 0;
  bool tree_patched_ = false;
  std::int64_t bandwidth_ = 1;
  double weight_bound_ = 1.0;
};

// ---- Jacobi-preconditioned CG baseline -----------------------------------

std::size_t default_max_iter(std::size_t n, std::size_t requested) {
  return requested != 0 ? requested : 4 * n + 128;
}

class PreparedCg final : public PreparedLaplacian {
 public:
  explicit PreparedCg(const graph::Graph& g)
      : g_(g), labels_(g.component_labels()) {
    // Jacobi preconditioner: D = diag(L_G) = weighted degrees. Isolated
    // vertices have a zero diagonal; their residual is identically zero
    // after projection, so their preconditioned entry is pinned to zero.
    const std::size_t n = g_.num_vertices();
    diag_.assign(n, 0.0);
    for (const auto& e : g_.edges()) {
      diag_[e.u] += e.weight;
      diag_[e.v] += e.weight;
    }
    bandwidth_ = bcc::Network::default_bandwidth(n);
    weight_bound_ = std::max(g_.max_weight(), 1.0);
  }

  std::string_view engine_key() const override { return "cg"; }
  bool usable() const override { return true; }
  std::size_t dim() const override { return g_.num_vertices(); }

  std::size_t resident_bytes() const override {
    return graph_bytes(g_) + labels_.size() * sizeof(std::size_t) +
           diag_.size() * sizeof(double);
  }

 private:
  linalg::DenseMatrix apply_panel(const common::Context& ctx,
                                  const linalg::DenseMatrix& b,
                                  const EngineOptions& opt,
                                  core::RunStats& counters) const override {
    linalg::DenseMatrix rhs = b;
    remove_component_means(rhs, labels_);
    const linalg::PanelOperator apply_a = [&](const linalg::DenseMatrix& x) {
      return graph::apply_laplacian_many(ctx, g_, x);
    };
    const linalg::PanelOperator precond = [&](const linalg::DenseMatrix& r) {
      linalg::DenseMatrix z(r.rows(), r.cols());
      for (std::size_t i = 0; i < r.rows(); ++i) {
        const double* ri = r.row_data(i);
        double* zi = z.row_data(i);
        const double d = diag_[i];
        for (std::size_t j = 0; j < r.cols(); ++j)
          zi[j] = d > 0.0 ? ri[j] / d : 0.0;
      }
      return z;
    };
    auto res = linalg::conjugate_gradient_many(
        apply_a, rhs, opt.eps,
        default_max_iter(g_.num_vertices(), opt.max_iterations), &precond);
    // One L_G matvec broadcast per CG iteration, charged per column (the
    // panel amortizes wall time, not broadcasts — same convention as the
    // sparsified panel), and
    // iterations reports the panel's longest column, matching the
    // "per-column iterations" meaning of the other engines' panels.
    const std::int64_t per_iter =
        matvec_rounds(g_, weight_bound_, bandwidth_, opt.eps);
    for (const std::size_t iters : res.iterations) {
      counters.rounds += static_cast<std::int64_t>(iters) * per_iter;
      counters.iterations = std::max(counters.iterations, iters);
    }
    remove_component_means(res.x, labels_);
    return std::move(res.x);
  }

  graph::Graph g_;
  std::vector<std::size_t> labels_;
  std::vector<double> diag_;
  std::int64_t bandwidth_ = 1;
  double weight_bound_ = 1.0;
};

}  // namespace

linalg::DenseMatrix PreparedLaplacian::apply_many(
    const common::Context& ctx, const linalg::DenseMatrix& b,
    const EngineOptions& opt, core::RunStats* stats) const {
  if (!usable()) {
    throw std::logic_error(std::string(engine_key()) +
                           ": apply on an unusable artifact (its prepare "
                           "phase failed)");
  }
  // Explicit size check: a wrong-sized rhs in a Release build must fail
  // loudly, not read out of bounds inside the matvec kernels.
  if (b.rows() != dim()) {
    throw std::invalid_argument(std::string(engine_key()) +
                                ": right-hand side has " +
                                std::to_string(b.rows()) + " rows, graph has " +
                                std::to_string(dim()) + " vertices");
  }
  core::RunStats counters;
  linalg::DenseMatrix x = apply_panel(ctx, b, opt, counters);
  if (stats) {
    counters.panels = 1;
    counters.dense_factors = dense_factors();
    counters.sparse_factors = sparse_factors();
    *stats = counters;
  }
  return x;
}

linalg::Vec PreparedLaplacian::apply(const common::Context& ctx,
                                     const linalg::Vec& b,
                                     const EngineOptions& opt,
                                     core::RunStats* stats) const {
  linalg::DenseMatrix x =
      apply_many(ctx, linalg::DenseMatrix::from_columns({b}), opt, stats);
  if (stats) stats->panels = 0;
  return x.column(0);
}

std::shared_ptr<const PreparedLaplacian> prepare_exact(
    const common::Context& ctx, const graph::Graph& g, linalg::FactorMode mode,
    std::string_view engine_key) {
  return std::make_shared<PreparedExact>(ctx, g, mode, engine_key);
}

std::shared_ptr<const PreparedLaplacian> prepare_sparsified_chebyshev(
    const common::Context& ctx, const graph::Graph& g,
    const sparsify::SparsifyOptions& opt) {
  return std::make_shared<PreparedSparsifiedChebyshev>(ctx, g, opt);
}

std::shared_ptr<const PreparedLaplacian> prepare_cg(const common::Context&,
                                                    const graph::Graph& g) {
  return std::make_shared<PreparedCg>(g);
}

}  // namespace bcclap::laplacian
