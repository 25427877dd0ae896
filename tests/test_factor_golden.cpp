// Golden pins for the factorization kernels: for fixed integer-weighted
// inputs and integer-derived right-hand sides, the bytes of every solve()
// and solve_many() output are pinned to values recorded before the dense
// tail kernels were laned. The pins hash solver outputs only, never factor
// storage, so a change of internal layout is free while any change of
// arithmetic order shows up as a mismatch. Inputs avoid next_gaussian and
// every other libm call, so the pins do not depend on the math library.
// Every case runs at 1 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/runtime.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/laplacian.h"
#include "linalg/cholesky.h"
#include "linalg/csc_matrix.h"
#include "support/fnv.h"

namespace bcclap {
namespace {

using linalg::DenseMatrix;
using linalg::Vec;
using testsupport::Fnv;

// Panel widths every case solves; the widest panel's columns double as
// the single-RHS inputs.
constexpr std::size_t kWidths[] = {1, 3, 4, 5, 9};
constexpr std::size_t kMaxWidth = 9;

struct Pin {
  std::uint64_t solve;       // kMaxWidth single-RHS solves, in column order
  std::uint64_t solve_many;  // one panel per width in kWidths, in order
};

// Integer-valued right-hand side panel; column j does not depend on the
// panel width, so the single solves cover every panel's columns.
DenseMatrix rhs_panel(std::size_t n, std::size_t k) {
  DenseMatrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j)
      b(i, j) = static_cast<double>((i * 31 + j * 17 + 7) % 23) - 11.0;
  return b;
}

// Dense, diagonally dominant (hence positive definite) matrix with small
// integer entries: every trailing update of the blocked kernel sees
// nonzero operands.
DenseMatrix dense_spd(std::size_t n) {
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const std::size_t lo = std::min(i, j);
      const std::size_t hi = std::max(i, j);
      const double v = -static_cast<double>((hi * 7 + lo * 13 + 3) % 5);
      a(i, j) = v;
      row_sum -= v;
    }
    a(i, i) = row_sum + 1.0 + static_cast<double>(i % 3);
  }
  return a;
}

template <typename Solve, typename SolveMany>
Pin hash_outputs(std::size_t n, Solve solve, SolveMany solve_many) {
  Fnv single;
  const DenseMatrix widest = rhs_panel(n, kMaxWidth);
  for (std::size_t j = 0; j < kMaxWidth; ++j)
    single.feed(solve(widest.column(j)));
  Fnv many;
  for (std::size_t k : kWidths) many.feed(solve_many(rhs_panel(n, k)));
  return {single.value(), many.value()};
}

void expect_pin(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.solve, want.solve);
  EXPECT_EQ(got.solve_many, want.solve_many);
}

class FactorGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactorGolden, DenseLdlt) {
  struct Case {
    std::size_t n;
    Pin want;
  };
  // Dims straddle the 4-row / 4-column register blocks and the 64-wide
  // tiles of the blocked kernel.
  const Case cases[] = {
      {1, {14218358428241935618ull, 2726052149695080142ull}},
      {2, {6846423772489080482ull, 14963260053200580718ull}},
      {3, {15486843493540986089ull, 354373311830740666ull}},
      {5, {14041187857392965076ull, 15782782046206441023ull}},
      {63, {5598269897505307914ull, 5488365960188802504ull}},
      {64, {18051203009682466620ull, 11559067120280881471ull}},
      {65, {14950194705105463972ull, 11371362552639915344ull}},
      {67, {18383913589416809559ull, 4597969792478688041ull}},
      {127, {5167630704789013367ull, 2617509159635391376ull}},
      {130, {14452598331388566447ull, 1020281569790097872ull}},
      {257, {13137165506943898066ull, 7256955827437524063ull}},
  };
  RuntimeOptions opts;
  opts.threads = GetParam();
  Runtime rt(opts);
  const auto ctx = rt.context();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.n);
    const auto f = linalg::LdltFactor::factor(ctx, dense_spd(c.n));
    ASSERT_TRUE(f.has_value());
    expect_pin(hash_outputs(
                   c.n, [&](const Vec& b) { return f->solve(b); },
                   [&](const DenseMatrix& b) { return f->solve_many(ctx, b); }),
               c.want);
  }
}

Pin sparse_pin(const graph::Graph& g, std::size_t threads,
               std::size_t* tail_dim) {
  RuntimeOptions opts;
  opts.threads = threads;
  Runtime rt(opts);
  const auto ctx = rt.context();
  const auto f = linalg::SparseLdltFactor::factor(
      ctx, linalg::CscSymmetricMatrix::from_symmetric_csr(graph::laplacian(g),
                                                          1));
  EXPECT_TRUE(f.has_value());
  if (!f) return {};
  *tail_dim = f->tail_dim();
  return hash_outputs(
      f->dim(), [&](const Vec& b) { return f->solve(b); },
      [&](const DenseMatrix& b) { return f->solve_many(ctx, b); });
}

// The service workload's topology: the AMD cutoff sends most columns to
// the dense tail.
TEST_P(FactorGolden, SparseRegularish2048) {
  rng::Stream s(2048);
  const graph::Graph g = graph::random_regularish(2048, 8, 4, s);
  std::size_t tail = 0;
  expect_pin(sparse_pin(g, GetParam(), &tail),
             {4878707977666300599ull, 18446476265626525892ull});
  EXPECT_GT(tail, 1000u);
}

// A planar grid: long sparse prefix, small dense tail.
TEST_P(FactorGolden, SparseGrid40) {
  rng::Stream s(40);
  const graph::Graph g = graph::grid(40, 40, 4, s);
  std::size_t tail = 0;
  expect_pin(sparse_pin(g, GetParam(), &tail),
             {8846286639045720942ull, 16759208874883689070ull});
  EXPECT_GT(tail, 0u);
  EXPECT_LT(tail, 400u);
}

// Two components on different backends plus an isolated vertex: a
// 200-vertex expander (below the sparse-path floor, dense kernel) and a
// 24 x 24 grid (sparse path).
TEST_P(FactorGolden, ComponentsMixedPaths) {
  rng::Stream s(776);
  const graph::Graph dense_part = graph::random_regularish(200, 6, 4, s);
  const graph::Graph sparse_part = graph::grid(24, 24, 4, s);
  const std::size_t off = dense_part.num_vertices();
  graph::Graph g(off + sparse_part.num_vertices() + 1);
  for (const graph::Edge& e : dense_part.edges())
    g.add_edge(e.u, e.v, e.weight);
  for (const graph::Edge& e : sparse_part.edges())
    g.add_edge(off + e.u, off + e.v, e.weight);

  RuntimeOptions opts;
  opts.threads = GetParam();
  Runtime rt(opts);
  const auto ctx = rt.context();
  const auto f = linalg::ComponentLaplacianFactor::factor(
      ctx, graph::laplacian(g), linalg::FactorMode::kAuto);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->num_components(), 3u);
  EXPECT_EQ(f->dense_factor_count(), 1u);
  EXPECT_EQ(f->sparse_factor_count(), 1u);
  // The factor's one solve body takes a single right-hand side as an
  // n x 1 panel.
  expect_pin(hash_outputs(
                 f->dim(),
                 [&](const Vec& b) {
                   return f->solve_many(ctx, DenseMatrix::from_columns({b}))
                       .column(0);
                 },
                 [&](const DenseMatrix& b) { return f->solve_many(ctx, b); }),
             {12708681356434074049ull, 8349658982597543130ull});
}

INSTANTIATE_TEST_SUITE_P(Threads, FactorGolden, ::testing::Values(1, 4));

}  // namespace
}  // namespace bcclap
