// PR 6 sparse-first factorization stack: CSC symmetric storage, the
// sparse LDL^T factor with its dense Schur tail, the dense/sparse
// dispatch inside LaplacianFactor / ComponentLaplacianFactor, and the
// determinism contract (byte-identical at any thread count) extended to
// the sparse path. Runs under the `runtime` ctest label so CI's TSan
// rerun covers the Schur-band and panel fan-outs.
#include "linalg/sparse_ldlt.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/runtime.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "linalg/cholesky.h"
#include "linalg/vector_ops.h"
#include "support/comparators.h"
#include "support/fixtures.h"

namespace bcclap::linalg {
namespace {

using testsupport::test_context;

Vec gaussian(std::size_t n, std::uint64_t seed) {
  rng::Stream stream(seed);
  Vec b(n);
  for (auto& v : b) v = stream.next_gaussian();
  return b;
}

DenseMatrix gaussian_panel(std::size_t n, std::size_t k, std::uint64_t seed) {
  rng::Stream stream(seed);
  DenseMatrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) b(i, j) = stream.next_gaussian();
  return b;
}

graph::Graph star_graph(std::size_t n) {
  graph::Graph g(n);
  for (std::size_t v = 1; v < n; ++v)
    g.add_edge(0, v, 1.0 + static_cast<double>(v % 3));
  return g;
}

// The equivalence fixtures: one representative of each structure the
// ordering/symbolic phases treat differently (chain, hub, expander-ish,
// grid). All large enough that kAuto would route them to the sparse path.
std::vector<std::pair<const char*, graph::Graph>> equivalence_graphs() {
  std::vector<std::pair<const char*, graph::Graph>> out;
  out.emplace_back("path", graph::path(500));
  out.emplace_back("star", star_graph(450));
  rng::Stream reg(91);
  out.emplace_back("regularish", graph::random_regularish(600, 8, 4, reg));
  rng::Stream gr(92);
  out.emplace_back("grid", graph::grid(22, 23, 3, gr));
  return out;
}

TEST(CscSymmetricMatrix, TripletBuildDropsLowerAndCoalesces) {
  // [[4, 1, 0], [1, 3, 2], [0, 2, 5]] given redundantly: both triangles
  // plus a duplicate (0,1) entry split in halves.
  std::vector<Triplet> t = {
      {0, 0, 4.0}, {0, 1, 0.5}, {1, 0, 0.5}, {1, 1, 3.0},
      {1, 2, 2.0}, {2, 1, 2.0}, {2, 2, 5.0}, {0, 1, 0.5},
  };
  const CscSymmetricMatrix a(3, std::move(t));
  EXPECT_EQ(a.dim(), 3u);
  EXPECT_EQ(a.nnz(), 5u);  // upper triangle only, duplicates merged
  const auto d = a.to_dense();
  EXPECT_EQ(d(0, 0), 4.0);
  EXPECT_EQ(d(0, 1), 1.0);  // 0.5 + 0.5 + the mirrored copy dropped
  EXPECT_EQ(d(1, 0), 1.0);
  EXPECT_EQ(d(1, 2), 2.0);
  EXPECT_EQ(d(0, 2), 0.0);
  const Vec y = a.multiply(Vec{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(y[0], 4.0 + 2.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0 + 6.0 + 6.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0 + 15.0);
}

TEST(CscSymmetricMatrix, FromCsrKeepsDuplicatesAndDropsTrailing) {
  // Path-3 Laplacian with every entry split into two duplicate halves (the
  // external-ingest shape test_cholesky.cpp covers on the dense path).
  const auto split = CsrMatrix::from_raw(
      3, 3, {0, 4, 10, 14},
      {0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 1, 1, 2, 2},
      {0.5, 0.5, -0.5, -0.5, -0.5, -0.5, 1.0, 1.0, -0.5, -0.5, -0.5, -0.5,
       0.5, 0.5});
  const auto full = CscSymmetricMatrix::from_symmetric_csr(split);
  const auto df = full.to_dense();
  EXPECT_DOUBLE_EQ(df(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(df(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(df(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(df(2, 2), 1.0);
  // drop_trailing = 1 is the grounding used by the Laplacian front ends.
  const auto grounded = CscSymmetricMatrix::from_symmetric_csr(split, 1);
  EXPECT_EQ(grounded.dim(), 2u);
  const auto dg = grounded.to_dense();
  EXPECT_DOUBLE_EQ(dg(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(dg(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(dg(1, 1), 2.0);
}

// Out-of-range indices and shapes throw in every build type; the
// builders index their column pointers by them.
TEST(CscSymmetricMatrix, TripletOutOfRangeThrows) {
  EXPECT_THROW(CscSymmetricMatrix(3, {{3, 1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(CscSymmetricMatrix(3, {{0, 3, 1.0}}), std::invalid_argument);
}

TEST(CscSymmetricMatrix, FromCsrNonSquareThrows) {
  const CsrMatrix rect(2, 3, {{0, 0, 1.0}, {1, 2, 1.0}});
  EXPECT_THROW(CscSymmetricMatrix::from_symmetric_csr(rect),
               std::invalid_argument);
}

TEST(CscSymmetricMatrix, FromCsrDropMoreThanRowsThrows) {
  const CsrMatrix sq(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW(CscSymmetricMatrix::from_symmetric_csr(sq, 3),
               std::invalid_argument);
  EXPECT_EQ(CscSymmetricMatrix::from_symmetric_csr(sq, 2).dim(), 0u);
}

TEST(CscSymmetricMatrix, LaplacianCscMatchesCsrLaplacian) {
  rng::Stream gstream(7);
  const auto g = graph::random_connected_gnp(40, 0.2, 6, gstream);
  const auto csr = graph::laplacian(g);
  const auto csc = graph::laplacian_csc(g);
  ASSERT_EQ(csc.dim(), g.num_vertices());
  const auto dense = csc.to_dense();
  for (std::size_t i = 0; i < csr.rows(); ++i) {
    for (std::size_t k = csr.row_ptr()[i]; k < csr.row_ptr()[i + 1]; ++k) {
      EXPECT_DOUBLE_EQ(dense(i, csr.col_index()[k]), csr.values()[k]);
    }
  }
  // Same quadratic form on a random vector.
  const Vec x = gaussian(g.num_vertices(), 11);
  const Vec a = csc.multiply(x);
  const Vec b = csr.multiply(test_context(), x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(SparseLdlt, MatchesDenseOnEquivalenceGraphs) {
  for (auto& [name, g] : equivalence_graphs()) {
    const auto lap = graph::laplacian(g);
    const auto fs =
        LaplacianFactor::factor(test_context(), lap, FactorMode::kForceSparse);
    const auto fd =
        LaplacianFactor::factor(test_context(), lap, FactorMode::kForceDense);
    ASSERT_TRUE(fs) << name;
    ASSERT_TRUE(fd) << name;
    EXPECT_EQ(fs->path(), FactorKind::kSparse) << name;
    EXPECT_EQ(fd->path(), FactorKind::kDense) << name;
    const Vec b = [&] {
      Vec v = gaussian(g.num_vertices(), 101);
      remove_mean(v);
      return v;
    }();
    const Vec xs = fs->solve(b);
    const Vec xd = fd->solve(b);
    ASSERT_EQ(xs.size(), xd.size());
    const double scale = norm2(xd) + 1.0;
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_NEAR(xs[i], xd[i], 1e-8 * scale) << name << " i=" << i;
    // And the sparse solution actually solves the system.
    const Vec r = sub(lap.multiply(test_context(), xs), b);
    EXPECT_LT(norm2(r), 1e-8 * (norm2(b) + 1.0)) << name;
  }
}

TEST(SparseLdlt, ComponentFactorMatchesDenseOnDisconnectedInput) {
  // Two mid-size components plus a singleton; force-sparse routes even
  // the small blocks through the sparse factor (pure dense-tail there).
  graph::Graph g(451);
  const auto part = graph::path(200);
  for (const auto& e : part.edges()) g.add_edge(e.u, e.v, e.weight);
  rng::Stream gstream(13);
  const auto part2 = graph::random_regularish(250, 6, 3, gstream);
  for (const auto& e : part2.edges())
    g.add_edge(200 + e.u, 200 + e.v, e.weight);
  const auto lap = graph::laplacian(g);  // vertex 450: singleton

  const auto fs = ComponentLaplacianFactor::factor(test_context(), lap,
                                                  FactorMode::kForceSparse);
  const auto fd = ComponentLaplacianFactor::factor(test_context(), lap,
                                                  FactorMode::kForceDense);
  ASSERT_TRUE(fs);
  ASSERT_TRUE(fd);
  EXPECT_EQ(fs->num_components(), 3u);
  EXPECT_EQ(fs->sparse_factor_count(), 2u);
  EXPECT_EQ(fs->dense_factor_count(), 0u);
  EXPECT_EQ(fd->dense_factor_count(), 2u);
  EXPECT_EQ(fd->sparse_factor_count(), 0u);

  const Vec b = gaussian(451, 17);
  const Vec xs = fs->solve(test_context(), b);
  const Vec xd = fd->solve(test_context(), b);
  const double scale = norm2(xd) + 1.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_NEAR(xs[i], xd[i], 1e-8 * scale) << i;
  EXPECT_EQ(xs[450], 0.0);  // singleton row of the pseudoinverse
}

TEST(SparseLdlt, DuplicateCsrEntriesAccumulate) {
  // Duplicate-entry CSR ingest through the forced sparse path must agree
  // with the clean path-graph reference (the dense path's contract).
  const auto split = CsrMatrix::from_raw(
      3, 3, {0, 4, 10, 14},
      {0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 1, 1, 2, 2},
      {0.5, 0.5, -0.5, -0.5, -0.5, -0.5, 1.0, 1.0, -0.5, -0.5, -0.5, -0.5,
       0.5, 0.5});
  const auto f =
      LaplacianFactor::factor(test_context(), split, FactorMode::kForceSparse);
  const auto ref = LaplacianFactor::factor(test_context(),
                                           graph::laplacian(graph::path(3)));
  ASSERT_TRUE(f);
  ASSERT_TRUE(ref);
  const Vec b{1.0, 0.0, -1.0};
  const Vec x = f->solve(b);
  const Vec xr = ref->solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xr[i], 1e-12);
}

TEST(SparseLdlt, SolveManyIsBitwiseEqualToColumnSolves) {
  for (auto& [name, g] : equivalence_graphs()) {
    const auto lap = graph::laplacian(g);
    const auto f =
        LaplacianFactor::factor(test_context(), lap, FactorMode::kForceSparse);
    ASSERT_TRUE(f) << name;
    const auto b = gaussian_panel(g.num_vertices(), 7, 211);
    const auto x = f->solve_many(test_context(), b);
    ASSERT_EQ(x.cols(), 7u);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      const Vec xj = f->solve(b.column(j));
      const Vec pj = x.column(j);
      ASSERT_EQ(xj.size(), pj.size());
      for (std::size_t i = 0; i < xj.size(); ++i)
        EXPECT_EQ(xj[i], pj[i]) << name << " col " << j << " row " << i;
    }
    // Degenerate panel: k = 0 round-trips shape without dispatch.
    EXPECT_EQ(f->solve_many(test_context(),
                            DenseMatrix(g.num_vertices(), 0)).cols(), 0u);
  }
}

TEST(SparseLdlt, FactorAndSolveAreThreadCountInvariant) {
  // The determinism contract of ROADMAP "Determinism as a feature",
  // extended to the sparse path: ordering/symbolic/numeric are
  // sequential, Schur bands and panel columns write disjointly, so 1
  // worker and 4 workers agree bitwise.
  rng::Stream gstream(41);
  const auto g = graph::random_regularish(700, 8, 5, gstream);
  const auto lap = graph::laplacian(g);
  const auto b = gaussian_panel(700, 5, 43);
  const auto run = [&](std::size_t threads) {
    RuntimeOptions opts;
    opts.threads = threads;
    opts.seed = 3;
    Runtime rt(opts);
    const auto f =
        LaplacianFactor::factor(rt.context(), lap, FactorMode::kForceSparse);
    EXPECT_TRUE(f);
    if (!f) return DenseMatrix(0, 0);
    EXPECT_EQ(f->path(), FactorKind::kSparse);
    return f->solve_many(rt.context(), b);
  };
  const auto one = run(1);
  const auto four = run(4);
  ASSERT_EQ(one.rows(), four.rows());
  ASSERT_EQ(one.cols(), four.cols());
  for (std::size_t i = 0; i < one.rows(); ++i)
    for (std::size_t j = 0; j < one.cols(); ++j)
      EXPECT_EQ(one(i, j), four(i, j)) << i << "," << j;
}

TEST(SparseLdlt, RejectsDegenerateInputs) {
  const auto ctx = test_context();
  // Empty and all-zero matrices: same contract as the dense kernel.
  EXPECT_FALSE(SparseLdltFactor::factor(ctx, CscSymmetricMatrix(0, {})));
  EXPECT_FALSE(SparseLdltFactor::factor(ctx, CscSymmetricMatrix(3, {})));
  // Indefinite 2x2 (eigenvalues 3, -1) must fail in the tail pivot check.
  std::vector<Triplet> t = {
      {0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 1.0}};
  EXPECT_FALSE(SparseLdltFactor::factor(ctx, CscSymmetricMatrix(2,
                                                                std::move(t))));
}

TEST(SparseLdlt, ExplicitModeOverridesDensityHeuristic) {
  // The force modes pin a backend regardless of shape — the seam the
  // engine registry's exact-* keys dispatch through.
  const std::size_t dim = kSparseMinDim;
  EXPECT_TRUE(sparse_path_selected(dim, 3 * dim, FactorMode::kAuto));
  EXPECT_FALSE(sparse_path_selected(dim, dim * dim, FactorMode::kAuto));
  EXPECT_FALSE(sparse_path_selected(dim, 3 * dim, FactorMode::kForceDense));
  EXPECT_FALSE(sparse_path_selected(100000, 100000, FactorMode::kForceDense));
  EXPECT_TRUE(sparse_path_selected(2, 4, FactorMode::kForceSparse));
}

TEST(SparseLdlt, AutoDispatchFollowsDimAndDensity) {
  constexpr FactorMode kAuto = FactorMode::kAuto;
  // Below the dimension bar: dense regardless of sparsity.
  EXPECT_FALSE(sparse_path_selected(kSparseMinDim - 1, 10, kAuto));
  // Above the bar and sparse: sparse path.
  EXPECT_TRUE(sparse_path_selected(kSparseMinDim, 3 * kSparseMinDim, kAuto));
  // Above the bar but dense: stays on the dense kernel.
  EXPECT_FALSE(sparse_path_selected(1000, 1000 * 900, kAuto));
  // The n=256 bench anchors must stay dense under kAuto so historical
  // fingerprints remain byte-identical (PR 6 acceptance criterion).
  EXPECT_FALSE(sparse_path_selected(255, 255 * 17, kAuto));
  // kAuto is the one (dim, density) rule the registry's tuner applies too.
  EXPECT_TRUE(sparse_path_preferred(kSparseMinDim, kSparseMaxDensity));
  EXPECT_FALSE(sparse_path_preferred(kSparseMinDim, kSparseMaxDensity * 1.01));
  EXPECT_FALSE(sparse_path_preferred(kSparseMinDim - 1, 0.0));
}

TEST(SparseLdlt, AutoPathSelectsSparseForLargeSparseLaplacian) {
  rng::Stream gstream(53);
  const auto g = graph::random_regularish(600, 8, 4, gstream);
  const auto f =
      LaplacianFactor::factor(test_context(), graph::laplacian(g));
  ASSERT_TRUE(f);
  EXPECT_EQ(f->path(), FactorKind::kSparse);
  // Small graphs keep the dense kernel under kAuto.
  const auto fsmall = LaplacianFactor::factor(
      test_context(), graph::laplacian(graph::path(100)));
  ASSERT_TRUE(fsmall);
  EXPECT_EQ(fsmall->path(), FactorKind::kDense);
}

TEST(SparseLdlt, RunStatsReportFactorBackend) {
  // The facade surfaces which backend the preconditioner factorization
  // ran on; at n=600 regularish under kAuto that must be the sparse path.
  rng::Stream gstream(59);
  const auto g = graph::random_regularish(600, 8, 4, gstream);
  RuntimeOptions opts;
  opts.threads = 2;
  opts.seed = 71;
  Runtime rt(opts);
  LaplacianSolveOptions lopt;
  lopt.eps = 1e-4;
  lopt.sparsify = testsupport::small_sparsify_options(0.5, 2, 2);
  linalg::Vec b(g.num_vertices(), 0.0);
  b[0] = 1.0;
  b[599] = -1.0;
  const auto run = rt.solve_laplacian(g, b, lopt);
  ASSERT_TRUE(run.usable);
  EXPECT_GE(run.stats.sparse_factors, 1u);
  EXPECT_EQ(run.stats.dense_factors, 0u);
}

// Wrong-sized right-hand sides on the public solve surface must fail
// loudly in Release builds, not read out of bounds (PR 6 satellite).
TEST(SparseLdlt, PublicSolveSurfaceValidatesDimensions) {
  const auto ctx = test_context();
  rng::Stream mstream(61);
  const auto a = testsupport::random_spd(8, mstream);
  const auto dense = LdltFactor::factor(ctx, a);
  ASSERT_TRUE(dense);
  EXPECT_THROW(dense->solve(Vec(7, 0.0)), std::invalid_argument);
  EXPECT_THROW(dense->solve_many(ctx, DenseMatrix(9, 2)),
               std::invalid_argument);

  const auto lap = graph::laplacian(graph::path(6));
  const auto lf = LaplacianFactor::factor(ctx, lap);
  ASSERT_TRUE(lf);
  EXPECT_THROW(lf->solve(Vec(5, 0.0)), std::invalid_argument);
  EXPECT_THROW(lf->solve_many(ctx, DenseMatrix(7, 1)), std::invalid_argument);

  const auto cf = ComponentLaplacianFactor::factor(ctx, lap);
  ASSERT_TRUE(cf);
  EXPECT_THROW(cf->solve(ctx, Vec(5, 0.0)), std::invalid_argument);
  EXPECT_THROW(cf->solve_many(ctx, DenseMatrix(5, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace bcclap::linalg
