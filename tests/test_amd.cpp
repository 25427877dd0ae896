// PR 10 AMD ordering stack: the quotient-graph approximate minimum
// degree ordering (linalg/amd.h), its shared contract with the exact-MD
// reference (permutation validity, ascending dense tail, deterministic
// tie-break), the fill-quality bound versus exact-MD, and the
// supernode-blocked factor's thread-count invariance. Runs under the
// `runtime` ctest label so CI's TSan rerun covers the panel fan-outs.
#include "linalg/amd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/runtime.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "linalg/cholesky.h"
#include "linalg/sparse_ldlt.h"
#include "linalg/vector_ops.h"
#include "support/fixtures.h"

namespace bcclap::linalg {
namespace {

using testsupport::test_context;

graph::Graph star_graph(std::size_t n) {
  graph::Graph g(n);
  for (std::size_t v = 1; v < n; ++v)
    g.add_edge(0, v, 1.0 + static_cast<double>(v % 3));
  return g;
}

// Two mid-size components plus a singleton — exercises the zero-degree
// and forest paths of the quotient graph.
graph::Graph disconnected_graph() {
  graph::Graph g(451);
  const auto part = graph::path(200);
  for (const auto& e : part.edges()) g.add_edge(e.u, e.v, e.weight);
  rng::Stream gstream(13);
  const auto part2 = graph::random_regularish(250, 6, 3, gstream);
  for (const auto& e : part2.edges())
    g.add_edge(200 + e.u, 200 + e.v, e.weight);
  return g;
}

// One representative of each structure the ordering treats differently:
// chain (no fill at all), hub (one giant element), grid (regular fronts),
// expander-ish (element absorption under pressure), disconnected.
std::vector<std::pair<const char*, graph::Graph>> ordering_graphs() {
  std::vector<std::pair<const char*, graph::Graph>> out;
  out.emplace_back("path", graph::path(500));
  out.emplace_back("star", star_graph(450));
  rng::Stream gr(92);
  out.emplace_back("grid", graph::grid(22, 23, 3, gr));
  rng::Stream reg(91);
  out.emplace_back("regularish", graph::random_regularish(600, 8, 4, reg));
  out.emplace_back("disconnected", disconnected_graph());
  return out;
}

// The shared ordering contract of linalg/amd.h: a valid permutation with
// the dense tail listed in ascending original id.
void expect_valid_ordering(const Ordering& ord, std::size_t n,
                           const char* name) {
  ASSERT_EQ(ord.perm.size(), n) << name;
  ASSERT_LE(ord.t, n) << name;
  std::vector<bool> seen(n, false);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_LT(ord.perm[k], n) << name << " position " << k;
    EXPECT_FALSE(seen[ord.perm[k]])
        << name << " duplicates original id " << ord.perm[k];
    seen[ord.perm[k]] = true;
  }
  for (std::size_t k = ord.t + 1; k < n; ++k) {
    EXPECT_LT(ord.perm[k - 1], ord.perm[k])
        << name << " tail not ascending at position " << k;
  }
}

// Total fill proxy for an ordering: sparse-prefix off-diagonal fill by
// the symbolic count plus the dense tail's strict lower triangle. Makes
// orderings with different cutoff points t comparable.
std::size_t total_fill(const CscSymmetricMatrix& a, const Ordering& ord) {
  const std::size_t tail = a.dim() - ord.t;
  return ordering_fill_nnz(a, ord) + tail * (tail - 1) / 2;
}

TEST(AmdOrder, ProducesValidOrderingsOnFixtureGraphs) {
  for (auto& [name, g] : ordering_graphs()) {
    const auto a = graph::laplacian_csc(g);
    expect_valid_ordering(amd_order(a), a.dim(), name);
    expect_valid_ordering(exact_min_degree_order(a), a.dim(), name);
  }
}

TEST(AmdOrder, IsDeterministicAcrossRepeatedCalls) {
  rng::Stream reg(91);
  const auto g = graph::random_regularish(600, 8, 4, reg);
  const auto a = graph::laplacian_csc(g);
  const Ordering first = amd_order(a);
  const Ordering second = amd_order(a);
  EXPECT_EQ(first.t, second.t);
  EXPECT_EQ(first.perm, second.perm);
}

TEST(AmdOrder, PathGraphOrdersFillFree) {
  // A chain has a perfect elimination ordering; the approximation must
  // find a zero-fill prefix too (degrees are exact on trees: every
  // element here has at most two boundary vertices).
  const auto a = graph::laplacian_csc(graph::path(500));
  const Ordering ord = amd_order(a);
  // Leaf-first elimination of a chain is fill-free: every prefix column
  // carries exactly its one surviving neighbor, nothing more.
  EXPECT_EQ(ordering_fill_nnz(a, ord), ord.t);
}

TEST(AmdOrder, FillWithinFifteenPercentOfExactMinDegree) {
  for (auto& [name, g] : ordering_graphs()) {
    const auto a = graph::laplacian_csc(g);
    const std::size_t amd_fill = total_fill(a, amd_order(a));
    const std::size_t md_fill = total_fill(a, exact_min_degree_order(a));
    EXPECT_LE(static_cast<double>(amd_fill),
              1.15 * static_cast<double>(md_fill) + 16.0)
        << name << " amd=" << amd_fill << " exact=" << md_fill;
  }
}

TEST(AmdOrder, SupernodeBlockedFactorIsThreadCountInvariant) {
  // The blocked Schur bands and panel mirrors fan out over the pool;
  // fixed band boundaries and a sequential reduction order keep the
  // factor bytes identical at any worker count.
  rng::Stream gstream(57);
  const auto g = graph::random_regularish(1200, 8, 5, gstream);
  const auto lap = graph::laplacian(g);
  rng::Stream bstream(58);
  DenseMatrix b(1200, 4);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      b(i, j) = bstream.next_gaussian();
  auto run = [&](std::size_t threads) {
    RuntimeOptions opts;
    opts.threads = threads;
    opts.seed = 5;
    Runtime rt(opts);
    const auto f =
        LaplacianFactor::factor(rt.context(), lap, FactorMode::kForceSparse);
    EXPECT_TRUE(f);
    EXPECT_EQ(f->path(), FactorKind::kSparse);
    // The factor actually went through the supernode machinery.
    const SparseFactorPhases phases = f->factor_phases();
    EXPECT_GT(phases.supernodes, 0u);
    EXPECT_GT(phases.fill_nnz, 0u);
    return f->solve_many(rt.context(), b);
  };
  const DenseMatrix x1 = run(1);
  const DenseMatrix x4 = run(4);
  ASSERT_EQ(x1.rows(), x4.rows());
  for (std::size_t i = 0; i < x1.rows(); ++i)
    for (std::size_t j = 0; j < x1.cols(); ++j)
      EXPECT_EQ(x1(i, j), x4(i, j)) << "(" << i << "," << j << ")";
}

TEST(AmdOrder, DenseDispatchBelowThresholdIsByteIdentical) {
  // n = 256 < kSparseMinDim: the auto dispatch must still route dense,
  // and the ordering rewrite must leave those solves byte-identical to a
  // forced-dense factor — the bench anchors at n=256 depend on it.
  static_assert(256 < kSparseMinDim);
  rng::Stream gstream(23);
  const auto g = graph::random_connected_gnp(256, 0.05, 6, gstream);
  const auto lap = graph::laplacian(g);
  const auto fa =
      LaplacianFactor::factor(test_context(), lap, FactorMode::kAuto);
  const auto fd =
      LaplacianFactor::factor(test_context(), lap, FactorMode::kForceDense);
  ASSERT_TRUE(fa);
  ASSERT_TRUE(fd);
  EXPECT_EQ(fa->path(), FactorKind::kDense);
  Vec b(256);
  rng::Stream bstream(29);
  for (auto& v : b) v = bstream.next_gaussian();
  remove_mean(b);
  const Vec xa = fa->solve(b);
  const Vec xd = fd->solve(b);
  ASSERT_EQ(xa.size(), xd.size());
  for (std::size_t i = 0; i < xa.size(); ++i) EXPECT_EQ(xa[i], xd[i]);
}

}  // namespace
}  // namespace bcclap::linalg
