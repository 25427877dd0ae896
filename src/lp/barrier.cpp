#include "lp/barrier.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bcclap::lp {

namespace {
bool finite(double v) { return std::isfinite(v); }
}  // namespace

CoordinateBarrier::CoordinateBarrier(double lower, double upper)
    : l(lower), u(upper) {
  if (finite(l) && finite(u)) {
    a = M_PI / (u - l);
    b = -M_PI_2 * (u + l) / (u - l);
  }
}

bool CoordinateBarrier::in_domain(double x) const {
  return x > l && x < u;
}

double CoordinateBarrier::value(double x) const {
  assert(in_domain(x));
  if (finite(l) && !finite(u)) return -std::log(x - l);
  if (!finite(l) && finite(u)) return -std::log(u - x);
  return -std::log(std::cos(a * x + b));
}

double CoordinateBarrier::d1(double x) const {
  assert(in_domain(x));
  if (finite(l) && !finite(u)) return -1.0 / (x - l);
  if (!finite(l) && finite(u)) return 1.0 / (u - x);
  return a * std::tan(a * x + b);
}

double CoordinateBarrier::d2(double x) const {
  assert(in_domain(x));
  if (finite(l) && !finite(u)) return 1.0 / ((x - l) * (x - l));
  if (!finite(l) && finite(u)) return 1.0 / ((u - x) * (u - x));
  const double c = std::cos(a * x + b);
  return a * a / (c * c);
}

BarrierSet::BarrierSet(linalg::Vec lower, linalg::Vec upper) {
  assert(lower.size() == upper.size());
  coords_.reserve(lower.size());
  for (std::size_t i = 0; i < lower.size(); ++i) {
    assert((finite(lower[i]) || finite(upper[i])) &&
           "dom(x_i) must not be the whole line (Section 4 assumption)");
    coords_.emplace_back(lower[i], upper[i]);
  }
}

bool BarrierSet::in_domain(const linalg::Vec& x) const {
  assert(x.size() == coords_.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!coords_[i].in_domain(x[i])) return false;
  }
  return true;
}

double BarrierSet::value(const linalg::Vec& x) const {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += coords_[i].value(x[i]);
  return s;
}

linalg::Vec BarrierSet::gradient(const linalg::Vec& x) const {
  linalg::Vec g(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) g[i] = coords_[i].d1(x[i]);
  return g;
}

linalg::Vec BarrierSet::hessian_diag(const linalg::Vec& x) const {
  linalg::Vec h(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) h[i] = coords_[i].d2(x[i]);
  return h;
}

double BarrierSet::max_feasible_step(const linalg::Vec& x,
                                     const linalg::Vec& dx,
                                     double margin) const {
  double step = 1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto& c = coords_[i];
    if (dx[i] > 0.0 && finite(c.u)) {
      step = std::min(step, margin * (c.u - x[i]) / dx[i]);
    } else if (dx[i] < 0.0 && finite(c.l)) {
      step = std::min(step, margin * (c.l - x[i]) / dx[i]);
    }
  }
  return std::max(step, 0.0);
}

}  // namespace bcclap::lp
