#include "laplacian/sdd_reduction.h"

#include <cassert>
#include <cmath>

namespace bcclap::laplacian {

SddReduction gremban_reduce(const linalg::DenseMatrix& m, double tol) {
  SddReduction out;
  const std::size_t n = m.rows();
  if (n == 0 || m.cols() != n) return out;
  out.virtual_graph = graph::Graph(2 * n);

  for (std::size_t u = 0; u < n; ++u) {
    double offdiag_abs = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (v == u) continue;
      offdiag_abs += std::abs(m(u, v));
    }
    const double slack = m(u, u) - offdiag_abs;
    if (slack < -1e-9 * std::max(1.0, m(u, u))) return out;  // not SDD
    // Edge (u, u+n) of weight slack/2 carries the diagonal surplus.
    if (slack > tol) out.virtual_graph.add_edge(u, u + n, slack / 2.0);
    for (std::size_t v = u + 1; v < n; ++v) {
      const double val = m(u, v);
      if (std::abs(val) < tol) continue;
      if (val < 0.0) {
        // Negative off-diagonals become intra-copy edges.
        out.virtual_graph.add_edge(u, v, -val);
        out.virtual_graph.add_edge(u + n, v + n, -val);
      } else {
        // Positive off-diagonals become cross-copy edges.
        out.virtual_graph.add_edge(u, v + n, val);
        out.virtual_graph.add_edge(v, u + n, val);
      }
    }
  }
  out.valid = true;
  return out;
}

linalg::DenseMatrix lift_rhs_many(const linalg::DenseMatrix& y) {
  linalg::DenseMatrix out(2 * y.rows(), y.cols());
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = 0; j < y.cols(); ++j) {
      out(i, j) = y(i, j);
      out(i + y.rows(), j) = -y(i, j);
    }
  }
  return out;
}

linalg::DenseMatrix project_solution_many(const linalg::DenseMatrix& x12) {
  assert(x12.rows() % 2 == 0);
  const std::size_t n = x12.rows() / 2;
  linalg::DenseMatrix x(n, x12.cols());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < x12.cols(); ++j)
      x(i, j) = 0.5 * (x12(i, j) - x12(i + n, j));
  }
  return x;
}

}  // namespace bcclap::laplacian
