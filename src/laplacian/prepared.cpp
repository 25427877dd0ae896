#include "laplacian/prepared.h"

#include <algorithm>
#include <cassert>
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

// Removes the per-component mean (projection onto range(L_G)).
void remove_component_means(linalg::Vec& x,
                            const std::vector<std::size_t>& labels) {
  std::size_t k = 0;
  for (std::size_t l : labels) k = std::max(k, l + 1);
  std::vector<double> sum(k, 0.0);
  std::vector<std::size_t> count(k, 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum[labels[i]] += x[i];
    ++count[labels[i]];
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] -= sum[labels[i]] / static_cast<double>(count[labels[i]]);
  }
}

// Explicit apply-surface size check (carried over from the solve-path
// bugfix sweep): a wrong-sized rhs in a Release build must fail loudly,
// not read out of bounds inside the matvec kernels.
void check_rhs_rows(const char* where, std::size_t got, std::size_t want) {
  if (got != want) {
    throw std::invalid_argument(std::string(where) +
                                ": right-hand side has " +
                                std::to_string(got) + " rows, graph has " +
                                std::to_string(want) + " vertices");
  }
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

  linalg::Vec apply(const common::Context& ctx, const linalg::Vec& b,
                    const EngineOptions&, core::RunStats* stats) const override {
    assert(factor_ && "apply() requires usable()");
    if (stats) *stats = make_stats();
    return factor_->solve(ctx, b);
  }

  linalg::DenseMatrix apply_many(const common::Context& ctx,
                                 const linalg::DenseMatrix& b,
                                 const EngineOptions&,
                                 core::RunStats* stats) const override {
    assert(factor_ && "apply() requires usable()");
    if (stats) {
      *stats = make_stats();
      stats->panels = 1;
    }
    return factor_->solve_many(ctx, b);
  }

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
  core::RunStats make_stats() const {
    core::RunStats st;
    st.dense_factors = dense_factors();
    st.sparse_factors = sparse_factors();
    return st;
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

  linalg::Vec apply(const common::Context& ctx, const linalg::Vec& b,
                    const EngineOptions& opt,
                    core::RunStats* stats) const override {
    assert(h_factor_ && "apply() requires usable()");
    check_rhs_rows("SparsifiedLaplacianSolver::solve", b.size(),
                   g_.num_vertices());
    linalg::Vec rhs = b;
    remove_component_means(rhs, g_components_);

    const auto apply_a = [&](const linalg::Vec& x) {
      return graph::apply_laplacian(ctx, g_, x);
    };
    // B = (3/2) L_H  =>  B^{-1} r = (2/3) L_H^+ r.
    const auto solve_b = [&](const linalg::Vec& r) {
      return linalg::scale(h_factor_->solve(ctx, r), 2.0 / 3.0);
    };
    const auto res = linalg::preconditioned_chebyshev(apply_a, solve_b, rhs,
                                                      3.0, opt.eps);

    // Round accounting (Theorem 1.3): each iteration broadcasts one vector
    // coordinate per node at O(log(n U / eps)) bits.
    const std::int64_t rounds =
        static_cast<std::int64_t>(res.iterations) * rounds_per_iter(opt.eps);
    if (stats) {
      core::RunStats st;
      st.iterations = res.iterations;
      st.rounds = rounds;
      st.dense_factors = dense_factors();
      st.sparse_factors = sparse_factors();
      *stats = st;
    }
    linalg::Vec y = res.x;
    remove_component_means(y, g_components_);
    return y;
  }

  linalg::DenseMatrix apply_many(const common::Context& ctx,
                                 const linalg::DenseMatrix& b,
                                 const EngineOptions& opt,
                                 core::RunStats* stats) const override {
    assert(h_factor_ && "apply() requires usable()");
    check_rhs_rows("SparsifiedLaplacianSolver::solve_many", b.rows(),
                   g_.num_vertices());
    const std::size_t k = b.cols();
    linalg::DenseMatrix rhs = b;
    for (std::size_t j = 0; j < k; ++j) {
      linalg::Vec col = rhs.column(j);
      remove_component_means(col, g_components_);
      rhs.set_column(j, col);
    }

    const auto apply_a = [&](const linalg::DenseMatrix& x) {
      return graph::apply_laplacian_many(ctx, g_, x);
    };
    // B = (3/2) L_H  =>  B^{-1} R = (2/3) L_H^+ R, one panel solve per
    // iteration shared by every column.
    const auto solve_b = [&](const linalg::DenseMatrix& r) {
      linalg::DenseMatrix z = h_factor_->solve_many(ctx, r);
      for (std::size_t i = 0; i < z.rows(); ++i) {
        double* zi = z.row_data(i);
        for (std::size_t j = 0; j < z.cols(); ++j) zi[j] *= 2.0 / 3.0;
      }
      return z;
    };
    const auto res = linalg::preconditioned_chebyshev_many(apply_a, solve_b,
                                                           rhs, 3.0, opt.eps);

    // Round accounting: each column still broadcasts its own vector per
    // iteration — a k-wide panel costs k x the single-RHS rounds (the
    // model charges communication; the batching amortizes wall time only).
    const std::int64_t rounds = static_cast<std::int64_t>(k) *
                                static_cast<std::int64_t>(res.iterations) *
                                rounds_per_iter(opt.eps);
    if (stats) {
      core::RunStats st;
      st.iterations = res.iterations;
      st.rounds = rounds;
      st.panels = 1;
      st.dense_factors = dense_factors();
      st.sparse_factors = sparse_factors();
      *stats = st;
    }
    linalg::DenseMatrix y = res.x;
    for (std::size_t j = 0; j < k; ++j) {
      linalg::Vec col = y.column(j);
      remove_component_means(col, g_components_);
      y.set_column(j, col);
    }
    return y;
  }

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
  std::int64_t rounds_per_iter(double eps) const {
    const int bits = enc::real_bits(
        static_cast<double>(g_.num_vertices()) * weight_bound_, eps);
    return enc::rounds_for_bits(bits, bandwidth_);
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

  linalg::Vec apply(const common::Context& ctx, const linalg::Vec& b,
                    const EngineOptions& opt,
                    core::RunStats* stats) const override {
    check_rhs_rows("cg engine", b.size(), g_.num_vertices());
    linalg::Vec rhs = b;
    remove_component_means(rhs, labels_);
    const linalg::LinearOperator apply_a = [&](const linalg::Vec& x) {
      return graph::apply_laplacian(ctx, g_, x);
    };
    const linalg::LinearOperator precond = [&](const linalg::Vec& r) {
      linalg::Vec z(r.size());
      for (std::size_t i = 0; i < r.size(); ++i)
        z[i] = diag_[i] > 0.0 ? r[i] / diag_[i] : 0.0;
      return z;
    };
    const auto res = linalg::conjugate_gradient(
        apply_a, rhs, opt.eps,
        default_max_iter(g_.num_vertices(), opt.max_iterations), &precond);
    if (stats) {
      core::RunStats st;
      st.iterations = res.iterations;
      st.rounds = rounds_for(res.iterations, opt.eps);
      *stats = st;
    }
    linalg::Vec x = res.x;
    remove_component_means(x, labels_);
    return x;
  }

  linalg::DenseMatrix apply_many(const common::Context& ctx,
                                 const linalg::DenseMatrix& b,
                                 const EngineOptions& opt,
                                 core::RunStats* stats) const override {
    check_rhs_rows("cg engine", b.rows(), g_.num_vertices());
    const std::size_t k = b.cols();
    linalg::DenseMatrix rhs = b;
    for (std::size_t j = 0; j < k; ++j) {
      linalg::Vec col = rhs.column(j);
      remove_component_means(col, labels_);
      rhs.set_column(j, col);
    }
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
    const auto res = linalg::conjugate_gradient_many(
        apply_a, rhs, opt.eps,
        default_max_iter(g_.num_vertices(), opt.max_iterations), &precond);
    // Communication is charged per column (the panel amortizes wall time,
    // not broadcasts — same convention as the sparsified panel), and
    // iterations reports the panel's longest column, matching the
    // "per-column iterations" meaning of the other engines' panels.
    std::int64_t rounds = 0;
    std::size_t longest = 0;
    for (std::size_t j = 0; j < k; ++j) {
      rounds += rounds_for(res.iterations[j], opt.eps);
      longest = std::max(longest, res.iterations[j]);
    }
    if (stats) {
      core::RunStats st;
      st.iterations = longest;
      st.rounds = rounds;
      st.panels = 1;
      *stats = st;
    }
    linalg::DenseMatrix x = res.x;
    for (std::size_t j = 0; j < k; ++j) {
      linalg::Vec col = x.column(j);
      remove_component_means(col, labels_);
      x.set_column(j, col);
    }
    return x;
  }

  std::size_t resident_bytes() const override {
    return graph_bytes(g_) + labels_.size() * sizeof(std::size_t) +
           diag_.size() * sizeof(double);
  }

 private:
  // One distributed L_G matvec broadcast per CG iteration — identical to
  // the Chebyshev iteration's accounting in PreparedSparsifiedChebyshev.
  std::int64_t rounds_for(std::size_t iterations, double eps) const {
    const int bits = enc::real_bits(
        static_cast<double>(g_.num_vertices()) * weight_bound_, eps);
    const std::int64_t per_iter = enc::rounds_for_bits(bits, bandwidth_);
    return static_cast<std::int64_t>(iterations) * per_iter;
  }

  graph::Graph g_;
  std::vector<std::size_t> labels_;
  std::vector<double> diag_;
  std::int64_t bandwidth_ = 1;
  double weight_bound_ = 1.0;
};

}  // namespace

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
