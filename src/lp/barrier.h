// Self-concordant barrier functions (Definition 4.1, Section 4.1).
//
// Per coordinate domain [l_i, u_i]:
//  - l finite, u = +inf : phi(x) = -log(x - l)
//  - l = -inf, u finite : phi(x) = -log(u - x)
//  - both finite        : phi(x) = -log cos(a x + b), the paper's
//    trigonometric barrier with a = pi/(u-l), b = -pi/2 (u+l)/(u-l).
#pragma once

#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/vector_ops.h"

namespace bcclap::lp {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();
inline constexpr double kPosInf = std::numeric_limits<double>::infinity();

struct CoordinateBarrier {
  CoordinateBarrier(double lower, double upper);

  double l;
  double u;
  // The trigonometric barrier's a = pi/(u-l) and b = -(pi/2)(u+l)/(u-l),
  // computed once; 0 unless both bounds are finite.
  double a = 0.0;
  double b = 0.0;

  bool in_domain(double x) const;
  double value(double x) const;
  double d1(double x) const;  // phi'
  double d2(double x) const;  // phi'' (> 0 on the domain)
};

// Barrier over R^m with per-coordinate bounds.
class BarrierSet {
 public:
  BarrierSet(linalg::Vec lower, linalg::Vec upper);

  std::size_t dim() const { return coords_.size(); }
  const CoordinateBarrier& coord(std::size_t i) const { return coords_[i]; }

  bool in_domain(const linalg::Vec& x) const;
  double value(const linalg::Vec& x) const;
  linalg::Vec gradient(const linalg::Vec& x) const;   // phi'(x) coordinate-wise
  linalg::Vec hessian_diag(const linalg::Vec& x) const;  // phi''(x)

  // One pass over the coordinates calling f(i, phi_i'(x_i), phi_i''(x_i)).
  // The domain dispatch and the argument a x_i + b are evaluated once per
  // coordinate, with CoordinateBarrier::d1()'s and d2()'s exact
  // expressions, so the values are bitwise gradient(x) and hessian_diag(x).
  template <typename F>
  void for_each_derivative(const linalg::Vec& x, F&& f) const {
    assert(x.size() == coords_.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const CoordinateBarrier& cb = coords_[i];
      assert(cb.in_domain(x[i]));
      if (std::isfinite(cb.l) && !std::isfinite(cb.u)) {
        f(i, -1.0 / (x[i] - cb.l), 1.0 / ((x[i] - cb.l) * (x[i] - cb.l)));
      } else if (!std::isfinite(cb.l) && std::isfinite(cb.u)) {
        f(i, 1.0 / (cb.u - x[i]), 1.0 / ((cb.u - x[i]) * (cb.u - x[i])));
      } else {
        const double arg = cb.a * x[i] + cb.b;
        const double c = std::cos(arg);
        f(i, cb.a * std::tan(arg), cb.a * cb.a / (c * c));
      }
    }
  }

  // Largest step s in [0, 1] such that x + s*dx stays strictly inside the
  // domain (with a safety margin); used by the IPM line search.
  double max_feasible_step(const linalg::Vec& x, const linalg::Vec& dx,
                           double margin = 0.99) const;

 private:
  std::vector<CoordinateBarrier> coords_;
};

}  // namespace bcclap::lp
