// PreparedLaplacian::resident_bytes() accounting (laplacian/prepared.h)
// against the FactorCache's LRU byte bound (core/factor_cache.h).
//
// The cache charges its budget with exactly what the artifacts claim to
// keep resident, so the accounting must be honest: every real engine
// variant reports a plausible floor (it owns at least its factors /
// graph copies), the cache's resident_bytes is the exact sum of its
// entries' claims, and a byte bound sized below the working set forces
// evictions while the bound keeps holding — with real artifacts, not the
// stub sizes of test_factor_cache.cpp.
#include "laplacian/prepared.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/factor_cache.h"
#include "graph/generators.h"
#include "laplacian/engine.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

using core::FactorCache;
using core::FactorCacheKey;
using laplacian::PreparedLaplacian;

graph::Graph bytes_test_graph(std::uint64_t seed = 11) {
  rng::Stream stream(seed);
  return graph::random_regularish(48, 4, 8, stream);
}

std::shared_ptr<const PreparedLaplacian> prepare_variant(
    const std::string& key, const graph::Graph& g) {
  const common::Context ctx = testsupport::test_context(19);
  if (key == "exact-dense") {
    return laplacian::prepare_exact(ctx, g, linalg::FactorMode::kForceDense,
                                    key);
  }
  if (key == "exact-sparse") {
    return laplacian::prepare_exact(ctx, g, linalg::FactorMode::kForceSparse,
                                    key);
  }
  if (key == "cg") {
    return laplacian::prepare_cg(ctx, g);
  }
  return laplacian::prepare_sparsified_chebyshev(
      ctx, g, testsupport::small_sparsify_options());
}

const std::vector<std::string>& engine_variants() {
  static const std::vector<std::string> kVariants = {
      "exact-dense", "exact-sparse", "sparsified-chebyshev", "cg"};
  return kVariants;
}

TEST(PreparedBytes, EveryEngineVariantReportsAPlausibleFloor) {
  const graph::Graph g = bytes_test_graph();
  const std::size_t n = g.num_vertices();
  // Every artifact owns at least one double-sized array of dimension n
  // (a factor column, a diagonal, a permutation) — a conservative floor
  // any honest accounting clears.
  const std::size_t floor_bytes = n * sizeof(double);
  for (const auto& key : engine_variants()) {
    const auto artifact = prepare_variant(key, g);
    ASSERT_NE(artifact, nullptr) << key;
    ASSERT_TRUE(artifact->usable()) << key;
    EXPECT_EQ(artifact->engine_key(), key);
    EXPECT_GT(artifact->resident_bytes(), floor_bytes) << key;
  }
}

TEST(PreparedBytes, CacheResidentBytesIsTheExactSumOfArtifactClaims) {
  const graph::Graph g = bytes_test_graph();
  FactorCache cache(256u << 20);
  std::size_t claimed = 0;
  std::uint64_t seed = 0;
  for (const auto& key : engine_variants()) {
    const auto artifact = prepare_variant(key, g);
    FactorCacheKey cache_key;
    cache_key.engine = key;
    cache_key.seed = ++seed;  // distinct entries
    ASSERT_EQ(cache.insert(cache_key, artifact), artifact);
    claimed += artifact->resident_bytes();
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, engine_variants().size());
  EXPECT_EQ(stats.resident_bytes, claimed);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PreparedBytes, LruByteBoundHoldsWithRealArtifacts) {
  // Budget = largest + smallest claim: every artifact fits alone (none is
  // silently oversized), but all four together cannot — inserting the set
  // must evict, and after every insert the bound still holds.
  const graph::Graph g = bytes_test_graph();
  std::vector<std::shared_ptr<const PreparedLaplacian>> artifacts;
  for (const auto& key : engine_variants()) {
    artifacts.push_back(prepare_variant(key, g));
  }
  std::size_t largest = 0;
  std::size_t smallest = static_cast<std::size_t>(-1);
  for (const auto& a : artifacts) {
    if (a->resident_bytes() > largest) largest = a->resident_bytes();
    if (a->resident_bytes() < smallest) smallest = a->resident_bytes();
  }

  FactorCache cache(largest + smallest);
  std::uint64_t seed = 0;
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    FactorCacheKey key;
    key.engine = engine_variants()[i];
    key.seed = ++seed;
    cache.insert(key, artifacts[i]);
    EXPECT_LE(cache.stats().resident_bytes, cache.max_bytes());
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LT(stats.entries, artifacts.size());
  EXPECT_LE(stats.resident_bytes, stats.max_bytes);
}

}  // namespace
}  // namespace bcclap
