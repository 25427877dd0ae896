#include "linalg/cholesky.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "linalg/vector_ops.h"
#include "support/fixtures.h"

namespace bcclap::linalg {
namespace {

using testsupport::solve_one;
using testsupport::test_context;

TEST(Ldlt, SolvesKnownSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const auto f = LdltFactor::factor(test_context(), a);
  ASSERT_TRUE(f);
  const Vec x = f->solve(Vec{1, 2});
  // Check A x = b.
  EXPECT_NEAR(4 * x[0] + x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[0] + 3 * x[1], 2.0, 1e-12);
}

TEST(Ldlt, RandomSpdResidual) {
  rng::Stream stream(7);
  for (std::size_t n : {3u, 10u, 40u}) {
    const auto a = testsupport::random_spd(n, stream);
    const auto f = LdltFactor::factor(test_context(), a);
    ASSERT_TRUE(f);
    const auto b = testsupport::gaussian_vector(n, stream);
    const Vec x = f->solve(b);
    const Vec r = sub(a.multiply(test_context(), x), b);
    EXPECT_LT(norm2(r), 1e-8 * norm2(b));
  }
}

TEST(Ldlt, RejectsIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;  // eigenvalues 3, -1
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;
  EXPECT_FALSE(LdltFactor::factor(test_context(), a));
}

constexpr FactorMode kBothBackends[] = {FactorMode::kForceDense,
                                        FactorMode::kForceSparse};

TEST(ComponentLaplacianFactor, SolvesOnPathGraph) {
  const auto g = graph::path(5);
  const auto lap = graph::laplacian(g);
  const auto f = ComponentLaplacianFactor::factor(test_context(), lap);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->num_components(), 1u);
  Vec b{1, 0, 0, 0, -1};
  const Vec x = solve_one(*f, b);
  const Vec lx = lap.multiply(test_context(), x);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(lx[i], b[i], 1e-9);
  EXPECT_NEAR(mean(x), 0.0, 1e-12);
}

TEST(ComponentLaplacianFactor, ProjectsRhs) {
  const auto g = graph::cycle(6);
  const auto lap = graph::laplacian(g);
  const auto f = ComponentLaplacianFactor::factor(test_context(), lap);
  ASSERT_TRUE(f);
  // b with nonzero mean: solver projects; solution satisfies L x = proj(b).
  Vec b{2, 0, 0, 0, 0, 0};
  const Vec x = solve_one(*f, b);
  Vec proj = b;
  remove_mean(proj);
  const Vec lx = lap.multiply(test_context(), x);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(lx[i], proj[i], 1e-9);
}

TEST(ComponentLaplacianFactor, RandomConnectedGraphs) {
  rng::Stream stream(11);
  for (std::uint64_t trial = 0; trial < 5; ++trial) {
    auto child = stream.child(trial);
    const auto g = graph::random_connected_gnp(20, 0.2, 10, child);
    const auto lap = graph::laplacian(g);
    const auto f = ComponentLaplacianFactor::factor(test_context(), lap);
    ASSERT_TRUE(f);
    const auto b = testsupport::zero_sum_gaussian(20, child);
    const Vec x = solve_one(*f, b);
    const Vec r = sub(lap.multiply(test_context(), x), b);
    EXPECT_LT(norm2(r), 1e-8);
  }
}

TEST(ComponentLaplacianFactor, OneAndTwoVertexGraphsOnBothBackends) {
  for (const FactorMode mode : kBothBackends) {
    // n = 1: L = 0 is a valid (trivial) system — every rhs projects to
    // zero and the solution is zero. A singleton factors nothing, so
    // neither backend is counted.
    const auto f1 = ComponentLaplacianFactor::factor(
        test_context(), graph::laplacian(graph::Graph(1)), mode);
    ASSERT_TRUE(f1);
    EXPECT_EQ(f1->dim(), 1u);
    EXPECT_EQ(f1->dense_factor_count(), 0u);
    EXPECT_EQ(f1->sparse_factor_count(), 0u);
    const Vec x1 = solve_one(*f1, Vec{7.0});
    ASSERT_EQ(x1.size(), 1u);
    EXPECT_EQ(x1[0], 0.0);
    const DenseMatrix p1 = f1->solve_many(test_context(), DenseMatrix(1, 3));
    EXPECT_EQ(p1.rows(), 1u);
    EXPECT_EQ(p1.cols(), 3u);

    // n = 2: the smallest graph with an actual grounded system, factored
    // on the pinned backend.
    graph::Graph two(2);
    two.add_edge(0, 1, 2.0);
    const auto f2 = ComponentLaplacianFactor::factor(
        test_context(), graph::laplacian(two), mode);
    ASSERT_TRUE(f2);
    const bool sparse = mode == FactorMode::kForceSparse;
    EXPECT_EQ(f2->dense_factor_count(), sparse ? 0u : 1u);
    EXPECT_EQ(f2->sparse_factor_count(), sparse ? 1u : 0u);
    const Vec x2 = solve_one(*f2, Vec{1.0, -1.0});
    EXPECT_NEAR(x2[0] - x2[1], 0.5, 1e-12);  // L x = b with weight 2
    EXPECT_NEAR(x2[0] + x2[1], 0.0, 1e-12);  // mean-zero representative
  }
}

TEST(ComponentLaplacianFactor, RejectsWrongSizedRhsOnBothBackends) {
  // Public solve surface validates dimensions even in Release builds.
  for (const FactorMode mode : kBothBackends) {
    const auto f = ComponentLaplacianFactor::factor(
        test_context(), graph::laplacian(graph::path(4)), mode);
    ASSERT_TRUE(f);
    EXPECT_THROW(solve_one(*f, Vec{1.0, -1.0}), std::invalid_argument);
    EXPECT_THROW(f->solve_many(test_context(), DenseMatrix(5, 2)),
                 std::invalid_argument);
    EXPECT_THROW(f->solve_many(test_context(), DenseMatrix(3, 1)),
                 std::invalid_argument);
  }
}

TEST(Ldlt, RejectsDegenerateInputs) {
  // All-zero matrix: no positive pivot exists; must be rejected by design,
  // not by racing `0 <= pivot_tol * 1e-300` against double underflow.
  EXPECT_FALSE(LdltFactor::factor(test_context(), DenseMatrix(3, 3)));
  EXPECT_FALSE(LdltFactor::factor(test_context(), DenseMatrix(1, 1)));
  // Even with a pivot tolerance tiny enough that the old relative
  // threshold underflowed to zero.
  EXPECT_FALSE(LdltFactor::factor(test_context(), DenseMatrix(4, 4), 1e-290));
  // A 0x0 system has nothing to factor.
  EXPECT_FALSE(LdltFactor::factor(test_context(), DenseMatrix(0, 0)));
}

TEST(Ldlt, BlockedFactorizationSpansBlockBoundaries) {
  // Sizes straddling the 64-wide internal block edge exercise the panel
  // and trailing-update paths of the blocked factorization.
  rng::Stream stream(19);
  for (std::size_t n : {64u, 65u, 130u, 200u}) {
    const auto a = testsupport::random_spd(n, stream);
    const auto f = LdltFactor::factor(test_context(), a);
    ASSERT_TRUE(f) << n;
    const auto b = testsupport::gaussian_vector(n, stream);
    const Vec x = f->solve(b);
    EXPECT_LT(norm2(sub(a.multiply(test_context(), x), b)), 1e-8 * norm2(b))
        << n;
  }
}

TEST(ComponentLaplacianFactor, DuplicateCsrEntriesAccumulateOnBothBackends) {
  // Path-graph Laplacian with every entry split into two duplicate halves,
  // as external CSR ingest may deliver. The grounded-matrix scatter (dense
  // accumulation, sparse triplet coalescing) must sum the duplicates; an
  // assignment would keep only the last one.
  const auto split = CsrMatrix::from_raw(
      3, 3, {0, 4, 10, 14},
      {0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 1, 1, 2, 2},
      {0.5, 0.5, -0.5, -0.5, -0.5, -0.5, 1.0, 1.0, -0.5, -0.5, -0.5, -0.5,
       0.5, 0.5});
  for (const FactorMode mode : kBothBackends) {
    const auto f = ComponentLaplacianFactor::factor(test_context(), split,
                                                    mode);
    ASSERT_TRUE(f);
    const auto ref = ComponentLaplacianFactor::factor(
        test_context(), graph::laplacian(graph::path(3)), mode);
    ASSERT_TRUE(ref);
    const Vec b{1.0, 0.0, -1.0};
    const Vec x = solve_one(*f, b);
    const Vec xr = solve_one(*ref, b);
    ASSERT_EQ(x.size(), xr.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_NEAR(x[i], xr[i], 1e-12);
  }
}

// Disconnected graph with a singleton, a 2-vertex component and a larger
// component; checks the per-component grounding and projection.
TEST(ComponentLaplacianFactor, DisconnectedWithSingletonAndPairComponents) {
  graph::Graph g(7);  // vertex 0: singleton
  g.add_edge(1, 2, 2.0);  // pair
  g.add_edge(3, 4, 1.0);  // path of 4
  g.add_edge(4, 5, 3.0);
  g.add_edge(5, 6, 1.0);
  const auto lap = graph::laplacian(g);
  const auto f = ComponentLaplacianFactor::factor(test_context(), lap);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->num_components(), 3u);

  rng::Stream stream(23);
  const auto b = testsupport::gaussian_vector(7, stream);
  const Vec x = solve_one(*f, b);

  // Solve-then-apply round trip: L x equals b with the per-component mean
  // removed (the projection of b onto range(L)).
  Vec proj = b;
  proj[0] = 0.0;  // singleton: L's row is zero
  const double m12 = (b[1] + b[2]) / 2.0;
  proj[1] -= m12;
  proj[2] -= m12;
  const double m36 = (b[3] + b[4] + b[5] + b[6]) / 4.0;
  for (std::size_t v = 3; v < 7; ++v) proj[v] -= m36;
  const Vec lx = lap.multiply(test_context(), x);
  for (std::size_t v = 0; v < 7; ++v) EXPECT_NEAR(lx[v], proj[v], 1e-9) << v;

  // The representative is mean-zero per component, and zero on singletons.
  EXPECT_EQ(x[0], 0.0);
  EXPECT_NEAR(x[1] + x[2], 0.0, 1e-12);
  EXPECT_NEAR(x[3] + x[4] + x[5] + x[6], 0.0, 1e-12);

  // Apply-then-solve: solving L y for y already in range(L) with zero
  // component means returns y itself.
  Vec y(7, 0.0);
  y[1] = 0.5;
  y[2] = -0.5;
  y[3] = 1.0;
  y[4] = -2.0;
  y[5] = 0.5;
  y[6] = 0.5;
  const Vec back = solve_one(*f, lap.multiply(test_context(), y));
  for (std::size_t v = 0; v < 7; ++v) EXPECT_NEAR(back[v], y[v], 1e-9) << v;
}

TEST(ComponentLaplacianFactor, AllSingletons) {
  // Edgeless graph: every component is a singleton, nothing to factor,
  // and the pseudoinverse is identically zero.
  const auto f =
      ComponentLaplacianFactor::factor(test_context(),
                                       graph::laplacian(graph::Graph(4)));
  ASSERT_TRUE(f);
  EXPECT_EQ(f->num_components(), 4u);
  const Vec x = solve_one(*f, Vec{1.0, -2.0, 3.0, 0.5});
  for (double v : x) EXPECT_EQ(v, 0.0);
}

// Non-square inputs are rejected in every build type: the factors read
// the matrix as n x n, so an assert-only check would turn a bad shape into
// an out-of-bounds read in Release.
TEST(Ldlt, ThrowsOnNonSquareMatrix) {
  EXPECT_THROW(LdltFactor::factor(test_context(), DenseMatrix(3, 2)),
               std::invalid_argument);
}

bool same_bytes(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

// refactor() reuses the factor's storage; whatever it held before, the
// result carries factor()'s bytes. Sizes cross the 64-wide block edge in
// both directions, and the same-size case reuses the storage as is.
TEST(Ldlt, RefactorMatchesFreshFactorAfterAnotherMatrix) {
  rng::Stream stream(23);
  const std::pair<std::size_t, std::size_t> cases[] = {
      {11, 11}, {70, 70}, {11, 70}, {70, 11}};
  for (const auto& [first, second] : cases) {
    SCOPED_TRACE(std::to_string(first) + " -> " + std::to_string(second));
    const DenseMatrix a = testsupport::random_spd(first, stream);
    const DenseMatrix b = testsupport::random_spd(second, stream);
    DenseMatrix rhs(second, 5);
    for (std::size_t c = 0; c < 5; ++c)
      rhs.set_column(c, testsupport::gaussian_vector(second, stream));
    LdltFactor f;
    ASSERT_TRUE(f.refactor(test_context(), a));
    ASSERT_TRUE(f.refactor(test_context(), b));
    const auto fresh = LdltFactor::factor(test_context(), b);
    ASSERT_TRUE(fresh);
    EXPECT_EQ(f.dim(), second);
    EXPECT_EQ(f.resident_bytes(), fresh->resident_bytes());
    EXPECT_TRUE(same_bytes(f.solve_many(test_context(), rhs),
                           fresh->solve_many(test_context(), rhs)));
    const DenseMatrix one = DenseMatrix::from_columns({rhs.column(0)});
    EXPECT_TRUE(same_bytes(f.solve_many(test_context(), one),
                           fresh->solve_many(test_context(), one)));
  }
}

// The factor keeps one packed lower triangle with D on its diagonal and
// nothing else: resident_bytes() is exactly n(n + 1) / 2 doubles, for a
// fresh factor and for one refactored across sizes on both sides of the
// 64-wide block edge, growing and shrinking.
TEST(Ldlt, ResidentBytesIsOnePackedTriangle) {
  rng::Stream stream(31);
  const auto packed_bytes = [](std::size_t n) {
    return n * (n + 1) / 2 * sizeof(double);
  };
  LdltFactor reused;
  for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 257u, 2u}) {
    SCOPED_TRACE(std::to_string(n));
    const DenseMatrix a = testsupport::random_spd(n, stream);
    const auto fresh = LdltFactor::factor(test_context(), a);
    ASSERT_TRUE(fresh);
    EXPECT_EQ(fresh->resident_bytes(), packed_bytes(n));
    ASSERT_TRUE(reused.refactor(test_context(), a));
    EXPECT_EQ(reused.resident_bytes(), packed_bytes(n));
  }
}

// A matrix handed over as its packed lower triangle factors to the bytes
// factor() gives the square matrix; a buffer of the wrong size throws.
TEST(Ldlt, FactorPackedMatchesFactor) {
  rng::Stream stream(37);
  for (std::size_t n : {5u, 64u, 130u}) {
    SCOPED_TRACE(std::to_string(n));
    const DenseMatrix a = testsupport::random_spd(n, stream);
    std::vector<double> lower(LdltFactor::packed_size(n));
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = j; i < n; ++i)
        lower[LdltFactor::packed_index(n, i, j)] = a(i, j);
    const auto packed =
        LdltFactor::factor_packed(test_context(), n, std::move(lower));
    const auto dense = LdltFactor::factor(test_context(), a);
    ASSERT_TRUE(packed);
    ASSERT_TRUE(dense);
    EXPECT_EQ(packed->resident_bytes(), dense->resident_bytes());
    DenseMatrix rhs(n, 6);
    for (std::size_t c = 0; c < 6; ++c)
      rhs.set_column(c, testsupport::gaussian_vector(n, stream));
    EXPECT_TRUE(same_bytes(packed->solve_many(test_context(), rhs),
                           dense->solve_many(test_context(), rhs)));
  }
  EXPECT_THROW(LdltFactor::factor_packed(test_context(), 3,
                                         std::vector<double>(5, 1.0)),
               std::invalid_argument);
}

// A failed refactor leaves the factor empty, whatever it held, so a solve
// throws the dimension error instead of using a half-built factor; a
// later refactor succeeds.
TEST(Ldlt, FailedRefactorLeavesFactorEmpty) {
  rng::Stream stream(29);
  const DenseMatrix a = testsupport::random_spd(6, stream);
  LdltFactor f;
  ASSERT_TRUE(f.refactor(test_context(), a));
  DenseMatrix indefinite = a;
  indefinite(5, 5) = -1.0;  // fails at the last pivot
  EXPECT_FALSE(f.refactor(test_context(), indefinite));
  EXPECT_EQ(f.dim(), 0u);
  EXPECT_THROW(f.solve(Vec(6, 1.0)), std::invalid_argument);
  EXPECT_THROW(f.solve_many(test_context(), DenseMatrix(6, 1)),
               std::invalid_argument);
  EXPECT_THROW(f.refactor(test_context(), DenseMatrix(3, 2)),
               std::invalid_argument);
  EXPECT_EQ(f.dim(), 0u);

  ASSERT_TRUE(f.refactor(test_context(), a));
  const auto fresh = LdltFactor::factor(test_context(), a);
  ASSERT_TRUE(fresh);
  const Vec b = testsupport::gaussian_vector(6, stream);
  const Vec x = f.solve(b);
  const Vec want = fresh->solve(b);
  EXPECT_EQ(std::memcmp(x.data(), want.data(), 6 * sizeof(double)), 0);
}

TEST(ComponentLaplacianFactor, ThrowsOnNonSquareMatrixOnBothBackends) {
  const CsrMatrix tall(3, 2, {{0, 0, 1.0}, {2, 1, 1.0}});
  const CsrMatrix wide(2, 3, {{0, 0, 1.0}, {1, 2, 1.0}});
  for (const FactorMode mode : kBothBackends) {
    EXPECT_THROW(ComponentLaplacianFactor::factor(test_context(), tall, mode),
                 std::invalid_argument);
    EXPECT_THROW(ComponentLaplacianFactor::factor(test_context(), wide, mode),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace bcclap::linalg
