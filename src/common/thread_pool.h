// A small reusable worker pool for data-parallel supersteps.
//
// The BC/BCC simulator is bulk-synchronous: within one superstep every
// node's local computation is independent, so the engine fans per-node work
// out across a fixed set of workers and joins at the superstep barrier.
// The pool is deliberately minimal — one blocking parallel-for at a time —
// because that is exactly the shape of a superstep.
//
// Determinism contract (load-bearing for the 1-thread-vs-N-thread test
// suite): `parallel_for_chunks` splits [begin, end) into chunks whose
// boundaries depend only on the range and the grain, never on the thread
// count or on scheduling. Callers that combine per-chunk partial results in
// chunk order therefore produce bit-identical output at any thread count.
// Note the guarantee is thread-count invariance, not equivalence with an
// unchunked sequential loop: merging per-chunk floating-point partials
// groups the additions differently than a single left-to-right sweep, so a
// chunked kernel may differ in the last ulps from its pre-chunking
// sequential version — but never between two runs of itself, whatever the
// worker count.
//
// Ownership: pools are owned by bcclap::Runtime instances (core/runtime.h);
// there is no process-wide pool. Code takes a common::Context
// (common/context.h) and runs on the pool it carries.
//
// Wakeup cost: workers spin briefly (yielding) for the next job before
// parking on the condition variable, and the publisher skips the notify
// syscall when no worker is parked — kernels that issue many short
// parallel regions back to back (e.g. one per factorization panel) avoid
// a futex round trip per region.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace bcclap::common {

// Default minimum scalar operations per chunk before fanning a kernel out
// to the pool; below this the dispatch overhead dominates the work.
inline constexpr std::size_t kDefaultMinWorkPerChunk = 16 * 1024;

// Items per chunk so one chunk covers at least `min_work` scalar
// operations, for a loop of `items` iterations costing `item_cost`
// operations each (use the average for ragged loops). Pure function of its
// arguments — never of the thread count — so chunk boundaries stay
// deterministic. Shared by the linalg kernels.
inline std::size_t chunk_grain(std::size_t items, std::size_t item_cost,
                               std::size_t min_work = kDefaultMinWorkPerChunk) {
  const std::size_t grain =
      std::max<std::size_t>(1, min_work / std::max<std::size_t>(item_cost, 1));
  return std::max<std::size_t>(1, std::min(items, grain));
}

// Thread count a defaulted (threads == 0) pool resolves to:
// BCCLAP_THREADS environment variable if set, else the
// BCCLAP_DEFAULT_THREADS compile-time knob, else hardware_concurrency.
std::size_t default_thread_count();

class ThreadPool {
 public:
  // Creates a pool with `threads` workers total (including the calling
  // thread, which participates in every parallel_for). threads == 0 is
  // treated as 1 (env resolution is the Runtime's job, not the pool's).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_; }

  // Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks of
  // at most `grain` indices, blocking until every chunk has run. Chunk
  // boundaries are a pure function of (begin, end, grain). Chunks may run
  // in any order on any worker; the caller's writes must be disjoint per
  // index or merged in chunk order afterwards.
  //
  // Exceptions thrown by fn are captured; the first one (in chunk order is
  // not guaranteed) is rethrown on the calling thread after the join.
  //
  // Calls from inside a worker (nested parallelism) run inline on the
  // calling thread — the pool never deadlocks on itself.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& fn);

  // Per-index convenience: fn(i) for i in [begin, end).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_;  // null when threads_ == 1 (pure inline execution)
  const std::size_t threads_;
};

// Deterministic chunked reduction, the one blessed way to parallelize an
// accumulate/scatter loop: [begin, end) splits into fixed chunks, each
// chunk's body accumulates into a private partial seeded from `init`, and
// the partials merge on the calling thread in ascending chunk order. The
// chunk boundaries — and therefore the floating-point grouping — depend
// only on (begin, end, grain), so results are bit-identical at any thread
// count. body(lo, hi, partial&); merge(partial&) called per chunk in order.
template <typename Partial, typename Body, typename Merge>
void parallel_reduce_chunks(ThreadPool& pool, std::size_t begin,
                            std::size_t end, std::size_t grain,
                            const Partial& init, Body&& body, Merge&& merge) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t num_chunks = (end - begin + grain - 1) / grain;
  std::vector<Partial> partials(num_chunks, init);
  pool.parallel_for_chunks(begin, end, grain,
                           [&](std::size_t lo, std::size_t hi) {
                             body(lo, hi, partials[(lo - begin) / grain]);
                           });
  for (Partial& p : partials) merge(p);
}

}  // namespace bcclap::common
