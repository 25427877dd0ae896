// Fingerprint-keyed factorization cache: "factor once, solve many across
// requests" (ROADMAP: solver-service economics).
//
// The prepare/apply split (laplacian/prepared.h) makes the expensive half
// of every solve an immutable, context-free artifact. This cache retains
// those artifacts keyed by everything that determines their bytes:
//
//   engine              concrete registry key that prepared the artifact
//   fingerprint         graph topology + exact weight bits
//                       (graph/fingerprint.h)
//   seed                ctx.seed() — the sparsifier's randomness root
//   min_work_per_chunk  chunk-boundary policy (chunk boundaries feed the
//                       deterministic reduction order, so factor bytes
//                       depend on it)
//   options_hash        prepare-time option fields (the sparsify knobs)
//
// Thread count is deliberately NOT part of the key: the determinism
// contract guarantees identical bytes at any worker count, so a 1-thread
// and a 4-thread Runtime share entries. Apply-time fields (eps,
// max_iterations) are not part of the key either — one artifact serves
// requests at any accuracy.
//
// Bounded LRU by resident bytes: each entry is charged its artifact's
// resident_bytes(); inserting past max_bytes evicts least-recently-used
// entries until the budget holds. An artifact larger than the whole
// budget is simply not cached. Hits, misses and evictions are counted for
// RunStats (cache_hits / cache_misses / cache_evictions).
//
// Thread safety: all methods are safe to call concurrently (one mutex);
// the artifacts themselves are immutable and applied outside the lock, so
// two Runtimes sharing a cache never serialize their solves — only their
// lookups.
//
// Prepare-in-flight dedup (lookup_or_join / publish / withdraw): without
// it, N cold requests for the same key race N redundant prepares — the
// bench_service 4-worker cold case burned ~2.5x the 1-worker wall doing
// the same sparsify+factor four times. The registry keyed on the exact
// cache key makes the first caller the leader (it runs the prepare) and
// blocks followers on a condition variable until the leader publishes
// the artifact (followers adopt it and count hits) or withdraws
// (followers wake and re-elect a leader, so a failed or throwing prepare
// never strands waiters).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>

#include "graph/fingerprint.h"
#include "laplacian/prepared.h"

namespace bcclap::core {

struct FactorCacheKey {
  std::string engine;
  graph::Fingerprint fingerprint;
  std::uint64_t seed = 0;
  std::size_t min_work_per_chunk = 0;
  std::uint64_t options_hash = 0;

  friend bool operator==(const FactorCacheKey& a, const FactorCacheKey& b) {
    return a.engine == b.engine && a.fingerprint == b.fingerprint &&
           a.seed == b.seed && a.min_work_per_chunk == b.min_work_per_chunk &&
           a.options_hash == b.options_hash;
  }
  friend bool operator!=(const FactorCacheKey& a, const FactorCacheKey& b) {
    return !(a == b);
  }
};

// Hash of the prepare-time fields of EngineOptions — exactly the
// sparsify knobs (epsilon, k, t, t_constant, iterations, growing_t), each
// mixed by exact value (doubles by bit pattern). Apply-time fields (eps,
// max_iterations) are excluded on purpose; see the header comment.
std::uint64_t prepare_options_hash(const laplacian::EngineOptions& opt);

// The one place a FactorCacheKey is filled: the concrete engine key, g's
// fingerprint, the seed and chunking policy of the context that will
// prepare, and prepare_options_hash(opt). The Runtime facade and the
// solver service's admission both call it, so the two keys cannot drift.
FactorCacheKey make_factor_cache_key(std::string engine, const graph::Graph& g,
                                     std::uint64_t seed,
                                     std::size_t min_work_per_chunk,
                                     const laplacian::EngineOptions& opt);

class FactorCache {
 public:
  // One consistent snapshot of the cache's size and traffic counters,
  // taken under a single lock acquisition. Admission control and the
  // solver service's ServiceStats read this instead of plumbing counters
  // through RunStats or holding friend access.
  struct Stats {
    std::size_t max_bytes = 0;
    std::size_t resident_bytes = 0;
    std::size_t entries = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  // max_bytes = 0 means "cache nothing" (every insert is a no-op); the
  // facade treats 0 as "off" and never constructs one.
  explicit FactorCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  FactorCache(const FactorCache&) = delete;
  FactorCache& operator=(const FactorCache&) = delete;

  // Returns the cached artifact and refreshes its LRU position, or null.
  // Counts one hit or one miss.
  std::shared_ptr<const laplacian::PreparedLaplacian> lookup(
      const FactorCacheKey& key);

  // Residency probe: returns the cached artifact WITHOUT refreshing its
  // LRU position or counting a hit/miss — admission decisions must not
  // perturb the replacement order or the traffic statistics the decisions
  // are based on.
  std::shared_ptr<const laplacian::PreparedLaplacian> peek(
      const FactorCacheKey& key) const;

  // Inserts `artifact` under `key` and returns the canonical artifact for
  // that key: if another thread inserted first, the existing entry wins
  // (first-wins dedupe — both callers then apply the same bytes) and is
  // returned instead. Entries larger than the whole budget are not cached
  // (the artifact is still returned). Evicts LRU entries as needed.
  std::shared_ptr<const laplacian::PreparedLaplacian> insert(
      const FactorCacheKey& key,
      std::shared_ptr<const laplacian::PreparedLaplacian> artifact);

  // Deduplicating lookup. Resident key: returns the artifact (one hit,
  // LRU refreshed), *leader = false. Unknown key with no prepare in
  // flight: registers the caller as the key's preparer and returns null
  // with *leader = true — the caller MUST follow up with publish() (on
  // success) or withdraw() (on failure/exception), or waiters block
  // forever. Prepare already in flight: blocks until that prepare
  // resolves; a published artifact is returned as a hit, a withdrawal
  // re-runs the election (the caller may then come back as the leader).
  std::shared_ptr<const laplacian::PreparedLaplacian> lookup_or_join(
      const FactorCacheKey& key, bool* leader);

  // Leader success path: inserts under the first-wins/budget rules of
  // insert(), hands the canonical artifact to every waiter (each counts a
  // hit — they adopted work someone else did), and returns it. *evicted
  // is set to the LRU evictions this insert made — exactly what the
  // publishing run is charged, however many other publishes interleave.
  std::shared_ptr<const laplacian::PreparedLaplacian> publish(
      const FactorCacheKey& key,
      std::shared_ptr<const laplacian::PreparedLaplacian> artifact,
      std::uint64_t* evicted);

  // Leader failure path: drops the in-flight registration and wakes the
  // waiters empty-handed to re-elect. No-op if the key is not in flight.
  void withdraw(const FactorCacheKey& key);

  std::size_t max_bytes() const { return max_bytes_; }
  Stats stats() const;

 private:
  struct Entry {
    FactorCacheKey key;
    std::shared_ptr<const laplacian::PreparedLaplacian> artifact;
    std::size_t bytes = 0;
  };
  // One in-flight prepare. Waiters hold the shared_ptr, so the slot
  // outlives its removal from inflight_; `resolved` flips exactly once
  // (publish or withdraw), under mu_.
  struct Inflight {
    FactorCacheKey key;
    std::condition_variable cv;
    bool resolved = false;
    std::shared_ptr<const laplacian::PreparedLaplacian> artifact;  // publish
  };

  // Both require mu_ held. insert_locked returns the evictions its own
  // insert made through *evicted.
  std::shared_ptr<const laplacian::PreparedLaplacian> find_locked(
      const FactorCacheKey& key);
  std::shared_ptr<const laplacian::PreparedLaplacian> insert_locked(
      const FactorCacheKey& key,
      std::shared_ptr<const laplacian::PreparedLaplacian> artifact,
      std::uint64_t* evicted);

  const std::size_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> entries_;  // front = most recently used
  std::list<std::shared_ptr<Inflight>> inflight_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace bcclap::core
