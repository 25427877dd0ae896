// Execution context: the view every algorithm layer receives of the
// Runtime it runs inside (core/runtime.h).
//
// A Context is a cheap, copyable, non-owning triple
//   (worker pool, seed, min_work_per_chunk)
// threaded through the pipeline layers in place of the old process-global
// ThreadPool singleton and ad-hoc bare-seed parameters. Two Runtimes with
// different configurations hand their layers different Contexts, so two
// independently-configured pipelines coexist in one process; the
// byte-identical-determinism contract (thread_pool.h) holds per Context
// because chunk boundaries depend only on the range, the grain, and
// min_work_per_chunk — never on the worker count.
//
// Lifetime: a Context borrows its pool from a Runtime; everything built
// from a Context (Networks, solvers, factors) must not outlive that
// Runtime — except the immutable prepared artifacts (laplacian/prepared.h)
// and factors whose solve takes the context per call.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace bcclap::common {

class Context {
 public:
  Context(ThreadPool& pool, std::uint64_t seed,
          std::size_t min_work_per_chunk = kDefaultMinWorkPerChunk)
      : pool_(&pool),
        seed_(seed),
        min_work_(min_work_per_chunk == 0 ? 1 : min_work_per_chunk) {}

  ThreadPool& pool() const { return *pool_; }
  std::size_t num_threads() const { return pool_->num_threads(); }
  std::uint64_t seed() const { return seed_; }
  std::size_t min_work_per_chunk() const { return min_work_; }

  // Same pool and chunking policy, different seed.
  Context with_seed(std::uint64_t seed) const {
    Context c(*this);
    c.seed_ = seed;
    return c;
  }

  // Labelled child context / stream, mirroring rng::Stream::child: layers
  // derive their own randomness without perturbing the parent's.
  Context child(std::string_view label) const {
    return with_seed(rng::derive_seed(seed_, label));
  }
  rng::Stream stream(std::string_view label) const {
    return rng::Stream(rng::derive_seed(seed_, label));
  }

  // chunk_grain under this context's min-work policy.
  std::size_t grain(std::size_t items, std::size_t item_cost) const {
    return chunk_grain(items, item_cost, min_work_);
  }

  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn) const {
    pool_->parallel_for(begin, end, fn);
  }

  void parallel_for_chunks(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn) const {
    pool_->parallel_for_chunks(begin, end, grain, fn);
  }

  template <typename Partial, typename Body, typename Merge>
  void parallel_reduce_chunks(std::size_t begin, std::size_t end,
                              std::size_t grain, const Partial& init,
                              Body&& body, Merge&& merge) const {
    common::parallel_reduce_chunks(*pool_, begin, end, grain, init,
                                   std::forward<Body>(body),
                                   std::forward<Merge>(merge));
  }

 private:
  ThreadPool* pool_;
  std::uint64_t seed_;
  std::size_t min_work_;
};

}  // namespace bcclap::common
