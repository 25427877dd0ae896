// EngineRegistry suite (PR 7): key listing, unknown-key diagnostics,
// per-key prepare/apply equivalence against the exact reference, the
// auto-tuner's thresholds, RunStats engine-name propagation through the
// Runtime and LP facades, 1-vs-4-thread bitwise identity per engine —
// extending the determinism contract to every backend — and SDD engines
// that fail loudly on matrices they cannot factor.
#include "laplacian/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/runtime.h"
#include "graph/generators.h"
#include "laplacian/solver.h"
#include "linalg/sparse_ldlt.h"
#include "lp/lp_solver.h"
#include "support/comparators.h"
#include "support/fixtures.h"

namespace bcclap::laplacian {
namespace {

using testsupport::test_context;

TEST(EngineRegistry, ListsTheBuiltinKeysSorted) {
  auto& registry = EngineRegistry::instance();
  const auto keys = registry.keys();
  // All four built-ins present, in sorted order; "auto" is a selector,
  // never a listed entry.
  const std::vector<std::string> builtin = {
      "cg", "exact-dense", "exact-sparse", "sparsified-chebyshev"};
  std::size_t at = 0;
  for (const auto& want : builtin) {
    while (at < keys.size() && keys[at] != want) ++at;
    EXPECT_LT(at, keys.size()) << "missing or out of order: " << want;
  }
  for (const auto& key : builtin) EXPECT_TRUE(registry.registered(key)) << key;
  EXPECT_FALSE(registry.registered("auto"));
  for (std::size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i - 1], keys[i]);
}

TEST(EngineRegistry, UnknownKeyThrowsListingRegisteredKeys) {
  auto& registry = EngineRegistry::instance();
  const auto g = graph::path(4);
  try {
    registry.prepare("exact-dens", test_context(), g, EngineOptions{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("exact-dens"), std::string::npos) << msg;
    for (const auto& key : registry.keys())
      EXPECT_NE(msg.find(key), std::string::npos) << msg;
    EXPECT_NE(msg.find("auto"), std::string::npos) << msg;
  }
  // resolve() rejects unknown concrete keys with the same diagnostic.
  EXPECT_THROW(registry.resolve("chebishev", 64, 0.5, 1e-8),
               std::invalid_argument);
  // prepare() refuses the selector: the tuner needs the instance shape,
  // which only the caller has.
  EXPECT_THROW(registry.prepare("auto", test_context(), g, EngineOptions{}),
               std::invalid_argument);
}

TEST(EngineRegistry, EveryKeySolvesTheReferenceLaplacian) {
  rng::Stream gstream(1);
  const auto g = graph::complete(32, 6, gstream);
  linalg::Vec b(32, 0.0);
  b[0] = 1.0;
  b[31] = -1.0;
  const auto ref = exact_laplacian_solve(test_context(), g, b);

  auto& registry = EngineRegistry::instance();
  for (const std::string key :
       {"cg", "exact-dense", "exact-sparse", "sparsified-chebyshev"}) {
    EngineOptions opt;
    opt.eps = 1e-8;
    opt.sparsify = testsupport::small_sparsify_options(0.5, 2, 4);
    const auto ctx = test_context(404);
    const auto artifact = registry.prepare(key, ctx, g, opt);
    ASSERT_TRUE(artifact->usable()) << key;
    EXPECT_EQ(artifact->engine_key(), key);
    const auto x = artifact->apply(ctx, b, opt, nullptr);
    EXPECT_TRUE(testsupport::EnergyNormWithin(g, x, ref, 1e-6)) << key;
    // The batched surface honors the same accuracy contract per column.
    linalg::DenseMatrix panel(32, 2);
    for (std::size_t i = 0; i < 32; ++i) {
      panel(i, 0) = b[i];
      panel(i, 1) = -b[i];
    }
    const auto many = artifact->apply_many(ctx, panel, opt, nullptr);
    linalg::Vec col0(32), col1(32);
    for (std::size_t i = 0; i < 32; ++i) {
      col0[i] = many(i, 0);
      col1[i] = -many(i, 1);
    }
    EXPECT_TRUE(testsupport::EnergyNormWithin(g, col0, ref, 1e-6)) << key;
    EXPECT_TRUE(testsupport::EnergyNormWithin(g, col1, ref, 1e-6)) << key;
  }
}

TEST(EngineRegistry, AutoSelectFollowsTheDocumentedThresholds) {
  using linalg::kSparseMaxDensity;
  using linalg::kSparseMinDim;
  // At the corner: dimension and density both at their bars -> sparse.
  EXPECT_EQ(EngineRegistry::auto_select(kSparseMinDim, kSparseMaxDensity, 1e-4),
            "exact-sparse");
  // One below the dimension bar: the PR 6 anchor-preserving rule.
  EXPECT_EQ(EngineRegistry::auto_select(kSparseMinDim - 1, 0.01, 1e-4),
            "sparsified-chebyshev");
  // Slightly too dense: the sparse factorization would just add overhead.
  EXPECT_EQ(
      EngineRegistry::auto_select(kSparseMinDim, kSparseMaxDensity * 1.01,
                                  1e-4),
      "sparsified-chebyshev");
  // Small but very accurate: direct dense factorization wins.
  EXPECT_EQ(EngineRegistry::auto_select(64, 0.9, kAutoExactEps),
            "exact-dense");
  EXPECT_EQ(EngineRegistry::auto_select(64, 0.9, kAutoExactEps * 0.1),
            "exact-dense");
  // Small and moderately accurate: the paper pipeline.
  EXPECT_EQ(EngineRegistry::auto_select(64, 0.9, 1e-8),
            "sparsified-chebyshev");
  // Large-and-sparse outranks the accuracy rule.
  EXPECT_EQ(EngineRegistry::auto_select(1024, 0.01, 1e-12), "exact-sparse");
  // resolve() hands "auto" and the empty key to the tuner; an explicit
  // key is served as is.
  const auto& registry = EngineRegistry::instance();
  EXPECT_EQ(registry.resolve("auto", 64, 0.9, 1e-8), "sparsified-chebyshev");
  EXPECT_EQ(registry.resolve("", kSparseMinDim, 0.01, 1e-4), "exact-sparse");
  EXPECT_EQ(registry.resolve("exact-dense", 64, 0.9, 1e-8), "exact-dense");
  // "cg" is a baseline for ablations; the tuner never picks it.
  for (const std::size_t n : {16u, 256u, 384u, 2048u})
    for (const double d : {0.001, 0.25, 0.5, 1.0})
      for (const double eps : {1e-12, 1e-8, 1e-2})
        EXPECT_NE(EngineRegistry::auto_select(n, d, eps), "cg");
}

TEST(EngineRegistry, FacadeStampsTheConcreteKeyIntoRunStats) {
  RuntimeOptions ropts;
  ropts.threads = 1;
  ropts.seed = 99;
  Runtime rt(ropts);

  // Small dense instance: "auto" resolves to the paper pipeline.
  rng::Stream gstream(8);
  const auto g = graph::complete(24, 4, gstream);
  linalg::Vec b(24, 0.0);
  b[0] = 1.0;
  b[23] = -1.0;
  LaplacianSolveOptions lopt;
  lopt.sparsify = testsupport::small_sparsify_options();
  const auto small = rt.solve_laplacian(g, b, lopt);
  ASSERT_TRUE(small.usable);
  EXPECT_EQ(small.stats.engine, "sparsified-chebyshev");
  EXPECT_GT(small.sparsifier.num_edges(), 0u);

  // Large sparse instance: "auto" resolves to the exact sparse path and
  // builds no preconditioner.
  rng::Stream g2stream(77);
  const auto g2 = graph::random_regularish(400, 8, 4, g2stream);
  linalg::Vec b2(400, 0.0);
  b2[0] = 1.0;
  b2[399] = -1.0;
  const auto large = rt.solve_laplacian(g2, b2, lopt);
  ASSERT_TRUE(large.usable);
  EXPECT_EQ(large.stats.engine, "exact-sparse");
  EXPECT_EQ(large.sparsifier.num_edges(), 0u);
  EXPECT_GE(large.stats.sparse_factors, 1u);
  EXPECT_EQ(large.stats.dense_factors, 0u);

  // An explicit key pins the backend regardless of shape.
  LaplacianSolveOptions cgopt = lopt;
  cgopt.engine = "cg";
  const auto pinned = rt.solve_laplacian(g, b, cgopt);
  ASSERT_TRUE(pinned.usable);
  EXPECT_EQ(pinned.stats.engine, "cg");

  // The batched facade stamps the same way.
  linalg::DenseMatrix panel(24, 2);
  for (std::size_t i = 0; i < 24; ++i) {
    panel(i, 0) = b[i];
    panel(i, 1) = -b[i];
  }
  const auto many = rt.solve_laplacian_many(g, panel, lopt);
  ASSERT_TRUE(many.usable);
  EXPECT_EQ(many.stats.engine, "sparsified-chebyshev");

  // LP facade: small dense Gram systems at eps_hint 1e-12 resolve to
  // "exact-dense" — the historical make_exact_sdd_engine behavior.
  const auto p = testsupport::diamond_lp();
  lp::LpOptions lpopt;
  lpopt.epsilon = 1e-4;
  const auto res =
      lp::lp_solve(rt.context(), p, {0.5, 0.5, 0.5, 0.5}, lpopt);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.stats.engine, "exact-dense");
}

TEST(EngineRegistry, EveryEngineIsThreadCountInvariant) {
  rng::Stream gstream(21);
  const auto g = graph::complete(26, 4, gstream);
  linalg::Vec b(26, 0.0);
  b[0] = 1.0;
  b[25] = -1.0;
  const auto run_with = [&](const std::string& key, std::size_t threads) {
    RuntimeOptions opts;
    opts.threads = threads;
    opts.seed = 123;
    Runtime rt(opts);
    LaplacianSolveOptions lopt;
    lopt.engine = key;
    lopt.sparsify = testsupport::small_sparsify_options();
    return rt.solve_laplacian(g, b, lopt);
  };
  for (const std::string key :
       {"cg", "exact-dense", "exact-sparse", "sparsified-chebyshev"}) {
    const auto one = run_with(key, 1);
    const auto four = run_with(key, 4);
    ASSERT_TRUE(one.usable) << key;
    ASSERT_TRUE(four.usable) << key;
    EXPECT_EQ(one.stats.engine, key);
    EXPECT_EQ(four.stats.engine, key);
    ASSERT_EQ(one.x.size(), four.x.size()) << key;
    for (std::size_t i = 0; i < one.x.size(); ++i)
      EXPECT_EQ(one.x[i], four.x[i]) << key << " index " << i;  // bitwise
    EXPECT_EQ(one.stats.rounds, four.stats.rounds) << key;
    EXPECT_EQ(one.stats.iterations, four.stats.iterations) << key;
  }
}

// An SDD matrix that does not factor, even with the ridge retry, and is
// not SDD: [[1, 2], [2, 1]] has eigenvalues 3 and -1. Every engine must
// throw its documented exception at construction instead of handing back
// an engine that crashes or misreports on its first solve.
TEST(EngineRegistry, SddConstructionFailsLoudly) {
  linalg::DenseMatrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 2.0;
  m(1, 1) = 1.0;
  const auto& registry = EngineRegistry::instance();
  EXPECT_THROW(registry.create_sdd("exact-dense", test_context(), m, {}),
               std::runtime_error);
  EXPECT_THROW(registry.create_sdd("exact-sparse", test_context(), m, {}),
               std::runtime_error);
  EXPECT_THROW(
      registry.create_sdd("sparsified-chebyshev", test_context(), m, {}),
      std::invalid_argument);
}

TEST(EngineRegistry, RegistrationIsLatestWins) {
  // The test-double seam: re-registering a key replaces its functions.
  // Registered last in this suite so the listing assertions above see
  // only the built-ins.
  // An artifact whose prepare phase "failed": usable() is false, so the
  // facade reports unusable and never applies it.
  struct StubArtifact : PreparedLaplacian {
    std::string_view engine_key() const override { return "test-stub"; }
    bool usable() const override { return false; }
    std::size_t dim() const override { return 0; }
    linalg::Vec apply(const common::Context&, const linalg::Vec&,
                      const EngineOptions&, core::RunStats*) const override {
      return {};
    }
    linalg::DenseMatrix apply_many(const common::Context&,
                                   const linalg::DenseMatrix&,
                                   const EngineOptions&,
                                   core::RunStats*) const override {
      return linalg::DenseMatrix(0, 0);
    }
    std::size_t resident_bytes() const override { return 0; }
  };
  // Prepare functions that count their calls in steps of `weight`.
  int prepared = 0;
  const auto counting = [&prepared](int weight) {
    return [&prepared, weight](const common::Context&, const graph::Graph&,
                               const EngineOptions&) {
      prepared += weight;
      return std::make_shared<StubArtifact>();
    };
  };
  auto& registry = EngineRegistry::instance();
  registry.register_engine("test-stub", counting(1));
  EXPECT_TRUE(registry.registered("test-stub"));
  const auto g = graph::path(3);
  const auto first =
      registry.prepare("test-stub", test_context(), g, EngineOptions{});
  EXPECT_EQ(prepared, 1);
  EXPECT_EQ(first->engine_key(), "test-stub");
  // Replacement: the newest prepare function serves subsequent calls.
  registry.register_engine("test-stub", counting(10));
  // The facade stamps the key and never applies an unusable artifact.
  RuntimeOptions ropts;
  ropts.threads = 1;
  Runtime rt(ropts);
  LaplacianSolveOptions lopt;
  lopt.engine = "test-stub";
  const auto run = rt.solve_laplacian(g, linalg::Vec(3, 0.0), lopt);
  EXPECT_EQ(prepared, 11);
  EXPECT_FALSE(run.usable);
  EXPECT_TRUE(run.x.empty());
  EXPECT_EQ(run.stats.engine, "test-stub");
  // No SDD factory was registered for the stub: create_sdd must refuse.
  EXPECT_THROW(registry.create_sdd("test-stub", test_context(),
                                   linalg::DenseMatrix(2, 2),
                                   SddEngineOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bcclap::laplacian
