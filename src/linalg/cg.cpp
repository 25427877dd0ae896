#include "linalg/cg.h"

#include <cmath>

namespace bcclap::linalg {

CgPanelResult conjugate_gradient_many(const PanelOperator& apply_a,
                                      const DenseMatrix& b, double tol,
                                      std::size_t max_iter,
                                      const PanelOperator* precond) {
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  CgPanelResult out;
  out.x = DenseMatrix(n, k);
  out.iterations.assign(k, 0);
  out.residual_norm.assign(k, 0.0);
  out.converged.assign(k, false);
  if (k == 0) return out;

  // Per-column dot product in ascending index order (dot()'s order), so a
  // column's scalars do not depend on the panel's width.
  const auto col_dot = [n](const DenseMatrix& a, const DenseMatrix& c,
                           std::size_t j) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += a(i, j) * c(i, j);
    return s;
  };

  DenseMatrix r = b;
  DenseMatrix z = precond ? (*precond)(r) : r;
  DenseMatrix p = z;
  std::vector<double> rz(k), target(k);
  std::vector<bool> active(k, true);
  std::size_t num_active = k;
  for (std::size_t j = 0; j < k; ++j) {
    rz[j] = col_dot(r, z, j);
    const double b_norm = std::sqrt(col_dot(b, b, j));
    target[j] = tol * (b_norm > 0 ? b_norm : 1.0);
    out.residual_norm[j] = std::sqrt(col_dot(r, r, j));
    if (out.residual_norm[j] <= target[j]) {
      out.converged[j] = true;
      active[j] = false;
      --num_active;
    }
  }

  for (std::size_t it = 0; it < max_iter && num_active > 0; ++it) {
    const DenseMatrix ap = apply_a(p);
    ++out.a_multiplies;
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      const double pap = col_dot(p, ap, j);
      if (pap <= 0.0 || !std::isfinite(pap)) {  // lost positive-definiteness
        active[j] = false;
        --num_active;
        continue;
      }
      const double alpha = rz[j] / pap;
      for (std::size_t i = 0; i < n; ++i) {
        out.x(i, j) += alpha * p(i, j);
        r(i, j) += -alpha * ap(i, j);
      }
      out.iterations[j] = it + 1;
      out.residual_norm[j] = std::sqrt(col_dot(r, r, j));
      if (out.residual_norm[j] <= target[j]) {
        out.converged[j] = true;
        active[j] = false;
        --num_active;
      }
    }
    if (num_active == 0 || it + 1 >= max_iter) break;
    z = precond ? (*precond)(r) : r;
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      const double rz_new = col_dot(r, z, j);
      const double beta = rz_new / rz[j];
      rz[j] = rz_new;
      for (std::size_t i = 0; i < n; ++i) p(i, j) = z(i, j) + beta * p(i, j);
    }
  }
  return out;
}

}  // namespace bcclap::linalg
