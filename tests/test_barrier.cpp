#include "lp/barrier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace bcclap::lp {
namespace {

// Finite-difference check of the derivatives.
void check_derivatives(const CoordinateBarrier& b, double x) {
  const double h = 1e-6;
  const double d1_fd = (b.value(x + h) - b.value(x - h)) / (2 * h);
  const double d2_fd = (b.d1(x + h) - b.d1(x - h)) / (2 * h);
  EXPECT_NEAR(b.d1(x), d1_fd, 1e-4 * (1.0 + std::abs(d1_fd)));
  EXPECT_NEAR(b.d2(x), d2_fd, 1e-3 * (1.0 + std::abs(d2_fd)));
  EXPECT_GT(b.d2(x), 0.0);  // convexity
}

TEST(Barrier, LogLowerBarrier) {
  const CoordinateBarrier b{0.0, kPosInf};
  EXPECT_TRUE(b.in_domain(0.5));
  EXPECT_FALSE(b.in_domain(0.0));
  EXPECT_FALSE(b.in_domain(-1.0));
  EXPECT_DOUBLE_EQ(b.value(1.0), 0.0);
  for (double x : {0.1, 1.0, 7.0}) check_derivatives(b, x);
}

TEST(Barrier, LogUpperBarrier) {
  const CoordinateBarrier b{kNegInf, 2.0};
  EXPECT_TRUE(b.in_domain(1.9));
  EXPECT_FALSE(b.in_domain(2.0));
  for (double x : {-3.0, 0.0, 1.5}) check_derivatives(b, x);
}

TEST(Barrier, TrigBarrierTwoSided) {
  const CoordinateBarrier b{-1.0, 3.0};
  EXPECT_TRUE(b.in_domain(0.0));
  EXPECT_FALSE(b.in_domain(-1.0));
  EXPECT_FALSE(b.in_domain(3.0));
  for (double x : {-0.9, 0.0, 1.0, 2.8}) check_derivatives(b, x);
  // Blows up toward both boundaries (Definition 4.1 condition 1).
  EXPECT_GT(b.value(-0.999), b.value(0.0) + 3.0);
  EXPECT_GT(b.value(2.999), b.value(1.0) + 3.0);
}

TEST(Barrier, TrigBarrierCenteredMinimum) {
  // For symmetric bounds the minimum is at the midpoint.
  const CoordinateBarrier b{-2.0, 2.0};
  EXPECT_NEAR(b.d1(0.0), 0.0, 1e-12);
  EXPECT_LT(b.value(0.0), b.value(1.0));
}

TEST(BarrierSet, GradientAndHessian) {
  BarrierSet bs(linalg::Vec{0.0, kNegInf}, linalg::Vec{kPosInf, 1.0});
  const linalg::Vec x{2.0, 0.0};
  EXPECT_TRUE(bs.in_domain(x));
  const auto g = bs.gradient(x);
  EXPECT_DOUBLE_EQ(g[0], -0.5);  // -1/(x-l)
  EXPECT_DOUBLE_EQ(g[1], 1.0);   // 1/(u-x)
  const auto h = bs.hessian_diag(x);
  EXPECT_DOUBLE_EQ(h[0], 0.25);
  EXPECT_DOUBLE_EQ(h[1], 1.0);
}

TEST(BarrierSet, FusedDerivativesMatchSeparatePasses) {
  // One coordinate of each barrier kind, at interior points that are not
  // exactly representable sums, so any change of expression shows.
  BarrierSet bs(linalg::Vec{0.3, kNegInf, -1.7, 0.0},
                linalg::Vec{kPosInf, 2.9, 4.1, 3.0});
  const linalg::Vec x{1.1, -0.45, 3.95, 0.07};
  ASSERT_TRUE(bs.in_domain(x));
  const auto g = bs.gradient(x);
  const auto h = bs.hessian_diag(x);
  std::size_t visited = 0;
  bs.for_each_derivative(x, [&](std::size_t i, double phi1, double phi2) {
    EXPECT_EQ(i, visited++);
    EXPECT_EQ(std::memcmp(&phi1, &g[i], sizeof phi1), 0) << i;
    EXPECT_EQ(std::memcmp(&phi2, &h[i], sizeof phi2), 0) << i;
  });
  EXPECT_EQ(visited, x.size());
}

TEST(BarrierSet, MaxFeasibleStep) {
  BarrierSet bs(linalg::Vec{0.0, 0.0}, linalg::Vec{1.0, kPosInf});
  const linalg::Vec x{0.5, 1.0};
  // Moving +1 in coord 0 hits u=1 after 0.5; margin 0.99.
  const double s = bs.max_feasible_step(x, linalg::Vec{1.0, 0.0});
  EXPECT_NEAR(s, 0.495, 1e-12);
  // Moving away from all bounds: full step.
  EXPECT_DOUBLE_EQ(bs.max_feasible_step(x, linalg::Vec{-0.1, 5.0}, 0.5), 1.0);
}

TEST(BarrierSet, DomainCheck) {
  BarrierSet bs(linalg::Vec{0.0}, linalg::Vec{1.0});
  EXPECT_TRUE(bs.in_domain(linalg::Vec{0.5}));
  EXPECT_FALSE(bs.in_domain(linalg::Vec{1.5}));
}

}  // namespace
}  // namespace bcclap::lp
