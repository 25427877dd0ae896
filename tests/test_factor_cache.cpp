// core::FactorCache (core/factor_cache.h) and the facade's cached solve
// path. Unit half: hit/miss/eviction counters, the resident-byte bound,
// LRU order and first-wins dedupe, on stub artifacts with chosen sizes.
// Integration half: repeat Runtime::solve_laplacian{,_many} on the same
// topology with caching on must skip the sparsify+factor prepare phase
// entirely (cache_hits >= 1, zero sparsify/factor tallies, zero
// preprocessing rounds) while staying bitwise-identical to the uncached
// path — at 1 and 4 worker threads, and under concurrent lookups from two
// Runtimes sharing one cache (this suite runs in CI's TSan rerun lane).
// A run whose publish loses to an entry another preparer inserted first
// applies that canonical artifact and reports none of its own prepare
// work.
#include "core/factor_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "graph/fingerprint.h"
#include "graph/generators.h"
#include "laplacian/engine.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

using core::FactorCache;
using core::FactorCacheKey;
using linalg::Vec;

// ---- unit half: stub artifacts with chosen resident sizes -------------

class StubArtifact final : public laplacian::PreparedLaplacian {
 public:
  explicit StubArtifact(std::size_t bytes) : bytes_(bytes) {}
  std::string_view engine_key() const override { return "stub"; }
  bool usable() const override { return true; }
  std::size_t dim() const override { return 0; }
  std::size_t resident_bytes() const override { return bytes_; }

 private:
  linalg::DenseMatrix apply_panel(const common::Context&,
                                  const linalg::DenseMatrix&,
                                  const laplacian::EngineOptions&,
                                  core::RunStats&) const override {
    return {};
  }

  std::size_t bytes_;
};

FactorCacheKey key_for(std::uint64_t seed) {
  FactorCacheKey key;
  key.engine = "stub";
  key.seed = seed;
  return key;
}

std::shared_ptr<const laplacian::PreparedLaplacian> stub(std::size_t bytes) {
  return std::make_shared<StubArtifact>(bytes);
}

TEST(FactorCache, CountsMissesAndHits) {
  FactorCache cache(1024);
  EXPECT_EQ(cache.lookup(key_for(1)), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  auto artifact = stub(100);
  EXPECT_EQ(cache.insert(key_for(1), artifact), artifact);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, 100u);

  EXPECT_EQ(cache.lookup(key_for(1)), artifact);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // A different key is a miss, not a near-hit.
  EXPECT_EQ(cache.lookup(key_for(2)), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(FactorCache, EvictsLeastRecentlyUsedToHoldTheByteBound) {
  FactorCache cache(100);
  cache.insert(key_for(1), stub(40));
  cache.insert(key_for(2), stub(40));
  // Touch key 1 so key 2 becomes the LRU entry.
  EXPECT_NE(cache.lookup(key_for(1)), nullptr);
  cache.insert(key_for(3), stub(40));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_LE(cache.stats().resident_bytes, cache.max_bytes());
  EXPECT_EQ(cache.lookup(key_for(2)), nullptr);  // the LRU victim
  EXPECT_NE(cache.lookup(key_for(1)), nullptr);
  EXPECT_NE(cache.lookup(key_for(3)), nullptr);
}

TEST(FactorCache, OversizedArtifactIsReturnedButNotCached) {
  FactorCache cache(64);
  auto big = stub(1000);
  EXPECT_EQ(cache.insert(key_for(1), big), big);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(FactorCache, FirstInsertWinsOnDuplicateKeys) {
  FactorCache cache(1024);
  auto first = stub(10);
  auto second = stub(10);
  EXPECT_EQ(cache.insert(key_for(1), first), first);
  // The racing inserter gets the canonical (existing) artifact back and
  // must apply that one, so every cached run sees the same bytes.
  EXPECT_EQ(cache.insert(key_for(1), second), first);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, 10u);
}

TEST(FactorCache, KeyDistinguishesEveryField) {
  const graph::Graph g = graph::path(8);
  const graph::Graph h = graph::path(9);
  FactorCacheKey base;
  base.engine = "sparsified-chebyshev";
  base.fingerprint = graph::fingerprint(g);
  base.seed = 7;
  base.min_work_per_chunk = 1024;
  base.options_hash = 99;

  FactorCacheKey other = base;
  EXPECT_EQ(base, other);
  other.engine = "cg";
  EXPECT_NE(base, other);
  other = base;
  other.fingerprint = graph::fingerprint(h);
  EXPECT_NE(base, other);
  other = base;
  other.seed = 8;
  EXPECT_NE(base, other);
  other = base;
  other.min_work_per_chunk = 2048;
  EXPECT_NE(base, other);
  other = base;
  other.options_hash = 100;
  EXPECT_NE(base, other);
}

TEST(FactorCache, OptionsHashCoversPrepareTimeFieldsOnly) {
  laplacian::EngineOptions a;
  laplacian::EngineOptions b;
  // Apply-time fields must not fragment the cache: one artifact serves
  // requests at any accuracy.
  b.eps = 1e-3;
  b.max_iterations = 17;
  EXPECT_EQ(core::prepare_options_hash(a), core::prepare_options_hash(b));
  // Prepare-time (sparsify) fields are the artifact's identity.
  b = a;
  b.sparsify.epsilon *= 2.0;
  EXPECT_NE(core::prepare_options_hash(a), core::prepare_options_hash(b));
  b = a;
  b.sparsify.k += 1;
  EXPECT_NE(core::prepare_options_hash(a), core::prepare_options_hash(b));
}

// ---- integration half: the facade's cached solve path -----------------

::testing::AssertionResult BitwiseEqual(const Vec& a, const Vec& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "bytes differ";
  return ::testing::AssertionSuccess();
}

graph::Graph cache_test_graph(std::uint64_t seed = 11) {
  rng::Stream stream(seed);
  return graph::random_regularish(48, 4, 8, stream);
}

Vec gaussian_rhs(std::size_t n, std::uint64_t seed) {
  rng::Stream stream(seed);
  Vec b(n);
  for (auto& v : b) v = stream.next_gaussian();
  return b;
}

LaplacianSolveOptions cheby_options() {
  LaplacianSolveOptions opt;
  opt.engine = "sparsified-chebyshev";
  opt.sparsify = testsupport::small_sparsify_options();
  return opt;
}

RuntimeOptions cached_runtime_options(std::size_t threads) {
  RuntimeOptions o;
  o.threads = threads;
  o.seed = 19;
  o.factor_cache_bytes = 64u << 20;
  return o;
}

TEST(FactorCacheRuntime, RepeatSolveHitsAndSkipsAllPrepareWork) {
  const graph::Graph g = cache_test_graph();
  const Vec b = gaussian_rhs(g.num_vertices(), 3);
  Runtime rt(cached_runtime_options(1));

  const auto cold = rt.solve_laplacian(g, b, cheby_options());
  ASSERT_TRUE(cold.usable);
  EXPECT_EQ(cold.stats.cache_misses, 1u);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_EQ(cold.stats.sparsify_count, 1u);
  EXPECT_GT(cold.preprocessing_rounds, 0);

  const auto warm = rt.solve_laplacian(g, b, cheby_options());
  ASSERT_TRUE(warm.usable);
  EXPECT_EQ(warm.stats.cache_hits, 1u);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  // A cached run did none of the prepare work and must report none.
  EXPECT_EQ(warm.stats.sparsify_count, 0u);
  EXPECT_EQ(warm.stats.dense_factors, 0u);
  EXPECT_EQ(warm.stats.sparse_factors, 0u);
  EXPECT_EQ(warm.preprocessing_rounds, 0);
  EXPECT_TRUE(BitwiseEqual(warm.x, cold.x));
}

TEST(FactorCacheRuntime, CachedSolveMatchesUncachedBytesAtOneAndFourThreads) {
  const graph::Graph g = cache_test_graph();
  const Vec b = gaussian_rhs(g.num_vertices(), 5);

  RuntimeOptions plain;
  plain.threads = 1;
  plain.seed = 19;
  Runtime uncached(plain);
  const Vec reference = uncached.solve_laplacian(g, b, cheby_options()).x;

  for (const std::size_t threads : {1u, 4u}) {
    Runtime rt(cached_runtime_options(threads));
    const auto cold = rt.solve_laplacian(g, b, cheby_options());
    const auto warm = rt.solve_laplacian(g, b, cheby_options());
    ASSERT_TRUE(warm.usable);
    EXPECT_GE(warm.stats.cache_hits, 1u);
    EXPECT_TRUE(BitwiseEqual(cold.x, reference)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(warm.x, reference)) << threads << " threads";
  }
}

TEST(FactorCacheRuntime, SolveManyRidesTheSameCache) {
  const graph::Graph g = cache_test_graph();
  const std::size_t n = g.num_vertices();
  linalg::DenseMatrix b(n, 3);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const Vec col = gaussian_rhs(n, 20 + j);
    for (std::size_t i = 0; i < n; ++i) b(i, j) = col[i];
  }
  Runtime rt(cached_runtime_options(1));
  const auto single = rt.solve_laplacian(g, b.column(0), cheby_options());
  ASSERT_TRUE(single.usable);
  EXPECT_EQ(single.stats.cache_misses, 1u);

  // The panel solve shares the artifact the single solve prepared.
  const auto panel = rt.solve_laplacian_many(g, b, cheby_options());
  ASSERT_TRUE(panel.usable);
  EXPECT_EQ(panel.stats.cache_hits, 1u);
  EXPECT_EQ(panel.stats.sparsify_count, 0u);
  EXPECT_EQ(panel.preprocessing_rounds, 0);
  EXPECT_TRUE(BitwiseEqual(panel.x.column(0), single.x));
}

TEST(FactorCacheRuntime, LostPublishAppliesTheCanonicalArtifact) {
  // A stub engine whose prepare function races itself: before returning
  // its own (sparsified) artifact it inserts a different usable one
  // (exact-dense) under the Runtime's exact cache key, so the facade's
  // publish finds a canonical entry that is not the artifact it prepared.
  const graph::Graph g = cache_test_graph();
  const Vec b = gaussian_rhs(g.num_vertices(), 9);
  Runtime rt(cached_runtime_options(1));
  std::shared_ptr<const laplacian::PreparedLaplacian> canonical;
  laplacian::EngineRegistry::instance().register_engine(
      "test-publish-race",
      [&](const common::Context& ctx, const graph::Graph& topology,
          const laplacian::EngineOptions& eopt) {
        FactorCacheKey key;
        key.engine = "test-publish-race";
        key.fingerprint = graph::fingerprint(topology);
        key.seed = ctx.seed();
        key.min_work_per_chunk = rt.options().min_work_per_chunk;
        key.options_hash = core::prepare_options_hash(eopt);
        canonical = laplacian::prepare_exact(
            ctx, topology, linalg::FactorMode::kForceDense, "exact-dense");
        rt.factor_cache()->insert(key, canonical);
        return laplacian::prepare_sparsified_chebyshev(ctx, topology,
                                                       eopt.sparsify);
      });
  LaplacianSolveOptions opt = cheby_options();
  opt.engine = "test-publish-race";
  const auto run = rt.solve_laplacian(g, b, opt);
  ASSERT_TRUE(run.usable);
  ASSERT_TRUE(canonical);

  laplacian::EngineOptions eopt;
  eopt.eps = opt.eps;
  eopt.sparsify = opt.sparsify;
  EXPECT_TRUE(
      BitwiseEqual(run.x, canonical->apply(rt.context(), b, eopt, nullptr)));
  // Neither the canonical artifact's tallies nor the discarded one's.
  EXPECT_EQ(run.stats.dense_factors, 0u);
  EXPECT_EQ(run.stats.sparse_factors, 0u);
  EXPECT_EQ(run.stats.sparsify_count, 0u);
  EXPECT_EQ(run.preprocessing_rounds, 0);
  EXPECT_EQ(run.stats.cache_misses, 1u);
  EXPECT_EQ(run.stats.cache_hits, 0u);
  EXPECT_EQ(run.stats.engine, "test-publish-race");
}

TEST(FactorCacheRuntime, SharedCacheAcrossRuntimesAndConcurrentLookups) {
  // Two Runtimes with the same seed and chunking policy share one cache;
  // thread count is not part of the key, so the 4-thread Runtime reuses
  // what the 1-thread Runtime prepared. The concurrent section is the
  // TSan target: simultaneous lookup/insert traffic on one cache.
  const graph::Graph g1 = cache_test_graph(11);
  const graph::Graph g2 = cache_test_graph(12);
  auto shared = std::make_shared<FactorCache>(64u << 20);

  RuntimeOptions o1;
  o1.threads = 1;
  o1.seed = 19;
  o1.factor_cache = shared;
  RuntimeOptions o4 = o1;
  o4.threads = 4;
  Runtime rt1(o1), rt4(o4);

  const Vec b1 = gaussian_rhs(g1.num_vertices(), 7);
  const Vec b2 = gaussian_rhs(g2.num_vertices(), 8);
  const Vec warmed = rt1.solve_laplacian(g1, b1, cheby_options()).x;
  const auto reused = rt4.solve_laplacian(g1, b1, cheby_options());
  EXPECT_EQ(reused.stats.cache_hits, 1u);
  EXPECT_TRUE(BitwiseEqual(reused.x, warmed));

  Vec from1, from4;
  std::thread t1([&] {
    for (int i = 0; i < 4; ++i) from1 = rt1.solve_laplacian(g2, b2,
                                                            cheby_options()).x;
  });
  std::thread t4([&] {
    for (int i = 0; i < 4; ++i) from4 = rt4.solve_laplacian(g2, b2,
                                                            cheby_options()).x;
  });
  t1.join();
  t4.join();
  EXPECT_TRUE(BitwiseEqual(from1, from4));
  // Every solve either hit or missed; first-wins dedupe means at most one
  // miss for g1 and two for g2 (both loops can race cold) — at least 7 of
  // the 10 solves were served from the cache.
  const FactorCache::Stats totals = shared->stats();
  EXPECT_EQ(totals.hits + totals.misses, 10u);
  EXPECT_GE(totals.hits, 7u);
  EXPECT_EQ(totals.evictions, 0u);
}

TEST(FactorCacheRuntime, ConcurrentEvictionsAreChargedToTheRunThatMadeThem) {
  // The tiny-budget variant of the shared-cache test: the budget holds one
  // artifact, so nearly every publish evicts the resident entry, and two
  // Runtimes publish concurrently. Each run is charged exactly the
  // evictions its own publish made, so the per-run counters sum to the
  // cache's total. Reading the cache-wide counter before and after the
  // publish charged a concurrent eviction to both runs.
  constexpr std::size_t kGraphs = 4;
  std::vector<graph::Graph> graphs;
  for (std::size_t i = 0; i < kGraphs; ++i)
    graphs.push_back(cache_test_graph(31 + i));
  std::size_t largest = 0;
  std::size_t smallest = static_cast<std::size_t>(-1);
  for (const auto& g : graphs) {
    const std::size_t bytes =
        laplacian::prepare_exact(testsupport::test_context(), g,
                                 linalg::FactorMode::kForceDense,
                                 "exact-dense")
            ->resident_bytes();
    largest = std::max(largest, bytes);
    smallest = std::min(smallest, bytes);
  }
  ASSERT_LT(largest, 2 * smallest);  // one entry fits, two never do
  auto shared = std::make_shared<FactorCache>(largest);

  RuntimeOptions o1;
  o1.threads = 1;
  o1.seed = 19;
  o1.factor_cache = shared;
  RuntimeOptions o2 = o1;
  o2.threads = 2;
  Runtime rt1(o1), rt2(o2);
  LaplacianSolveOptions opt;
  opt.engine = "exact-dense";
  const Vec b = gaussian_rhs(graphs[0].num_vertices(), 3);

  const auto cycle = [&](Runtime& rt, std::size_t offset,
                         std::size_t* charged) {
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < kGraphs; ++i) {
        const auto run =
            rt.solve_laplacian(graphs[(i + offset) % kGraphs], b, opt);
        EXPECT_TRUE(run.usable);
        *charged += run.stats.cache_evictions;
      }
    }
  };
  std::size_t charged1 = 0;
  std::size_t charged2 = 0;
  std::thread t1(cycle, std::ref(rt1), 0, &charged1);
  std::thread t2(cycle, std::ref(rt2), 2, &charged2);
  t1.join();
  t2.join();

  const FactorCache::Stats totals = shared->stats();
  EXPECT_GT(totals.evictions, 0u);
  EXPECT_EQ(charged1 + charged2, totals.evictions);
  EXPECT_LE(totals.resident_bytes, largest);
  EXPECT_EQ(totals.entries, 1u);
}

}  // namespace
}  // namespace bcclap
