#include "support/fixtures.h"

#include <algorithm>
#include <queue>

#include "core/runtime.h"

namespace bcclap::testsupport {

common::Context test_context(std::uint64_t seed) {
  static Runtime rt;
  return rt.context().with_seed(seed);
}

bcc::Network bc_net(const graph::Graph& g) { return bc_net(test_context(), g); }

bcc::Network bcc_net(std::size_t n) { return bcc_net(test_context(), n); }

bcc::Network bc_net(const common::Context& ctx, const graph::Graph& g) {
  return bcc::Network(bcc::Model::kBroadcastCongest, g,
                      bcc::Network::default_bandwidth(g.num_vertices()), ctx);
}

bcc::Network bcc_net(const common::Context& ctx, std::size_t n) {
  return bcc::Network(bcc::Model::kBroadcastCongestedClique, n,
                      bcc::Network::default_bandwidth(n), ctx);
}

sparsify::SparsifyOptions small_sparsify_options(double epsilon, std::size_t k,
                                                 std::size_t t) {
  sparsify::SparsifyOptions opt;
  opt.epsilon = epsilon;
  opt.k = k;
  opt.t = t;
  return opt;
}

std::int64_t expected_fixpoint_rounds(const graph::Graph& g,
                                      std::size_t iterations, std::size_t L) {
  // Hop eccentricity of vertex 0, by BFS.
  std::vector<std::int64_t> hops(g.num_vertices(), -1);
  std::queue<graph::VertexId> queue;
  hops[0] = 0;
  queue.push(0);
  std::int64_t ecc = 0;
  while (!queue.empty()) {
    const graph::VertexId v = queue.front();
    queue.pop();
    ecc = std::max(ecc, hops[v]);
    for (graph::EdgeId e : g.incident(v)) {
      const graph::VertexId u = g.other_endpoint(e, v);
      if (hops[u] >= 0) continue;
      hops[u] = hops[v] + 1;
      queue.push(u);
    }
  }
  const auto checks = static_cast<std::int64_t>(std::min(iterations, L - 1));
  return checks == 0 ? 0 : ecc * (2 * checks + 1);
}

std::vector<double> edge_weights(const graph::Graph& g) {
  std::vector<double> w(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) w[e] = g.edge(e).weight;
  return w;
}

graph::Graph scale_weights(const graph::Graph& g, double factor) {
  graph::Graph h(g.num_vertices());
  for (const auto& e : g.edges()) h.add_edge(e.u, e.v, factor * e.weight);
  return h;
}

lp::LpProblem diamond_lp() {
  lp::LpProblem p;
  p.a = linalg::CsrMatrix(
      4, 2, {{0, 0, 1.0}, {1, 0, 1.0}, {2, 1, 1.0}, {3, 1, 1.0}});
  p.b = {1.0, 1.0};
  p.c = {1.0, 3.0, 2.0, 1.0};
  p.lower = {0.0, 0.0, 0.0, 0.0};
  p.upper = {1.0, 1.0, 1.0, 1.0};
  return p;
}

linalg::Vec gaussian_vector(std::size_t n, rng::Stream& stream) {
  linalg::Vec b(n);
  for (auto& v : b) v = stream.next_gaussian();
  return b;
}

linalg::Vec zero_sum_gaussian(std::size_t n, rng::Stream& stream) {
  auto b = gaussian_vector(n, stream);
  linalg::remove_mean(b);
  return b;
}

linalg::DenseMatrix gaussian_matrix(std::size_t rows, std::size_t cols,
                                    rng::Stream& stream) {
  linalg::DenseMatrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = stream.next_gaussian();
  return a;
}

linalg::DenseMatrix random_spd(std::size_t n, rng::Stream& stream) {
  const auto b = gaussian_matrix(n, n, stream);
  auto a = b.transpose().multiply(test_context(), b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

linalg::Vec solve_one(const linalg::ComponentLaplacianFactor& f,
                      const linalg::Vec& b) {
  return f.solve_many(test_context(), linalg::DenseMatrix::from_columns({b}))
      .column(0);
}

}  // namespace bcclap::testsupport
