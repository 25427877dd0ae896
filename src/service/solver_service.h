// SolverService — the long-lived serving layer of the library (ROADMAP:
// "Solver service: multiplex many Runtimes behind a request loop").
//
//   clients --submit--> bounded request queue --pop--> worker Runtimes
//                            |                              |
//                   admission control              shared core::FactorCache
//              (cache residency, size)          (prepared artifacts, LRU)
//
// The service owns a pool of worker threads, each serving requests through
// its own bcclap::Runtime; all workers share ONE core::FactorCache, so a
// topology prepared by any worker is a cache hit for every other — the
// "factor once, solve many across requests" economics the cache was built
// for, now behind a request loop.
//
// Backpressure is explicit: submit() returns a Submission that either
// carries a PendingReply handle or names the rejection reason
// (queue-full / cold-oversized / shutting-down). Nothing is ever silently
// dropped — an accepted request is always eventually fulfilled, including
// through shutdown(), which stops admissions and drains every queued
// request before returning.
//
// Admission control is keyed on FactorCache residency: a Laplacian request
// whose prepared artifact is already resident (FactorCache::peek — no LRU
// or counter perturbation) jumps to the front of the queue (warm requests
// are nearly free — apply-only), while a cold request on a graph larger
// than ServiceOptions::max_cold_vertices is rejected with a reason instead
// of occupying a worker for an unbounded prepare.
//
// Same-fingerprint coalescing: concurrent single-RHS solve requests that
// agree on everything that determines their artifact and their apply
// (fingerprint, seed, resolved engine, prepare options, eps) are batched
// into one solve_many panel. Column j of a panel is byte-identical to the
// single-RHS solve (the PR 5 contract), so coalescing changes throughput,
// never bytes. A single the facade would reject is never coalesced: it is
// served, and fails, alone.
//
// Determinism contract (tested in tests/test_service.cpp and the replay
// harness, service/journal.h): the reply payload bytes of a request are a
// pure function of the request — independent of the worker count, the
// queue order, the cache state (cold or warm) and whether the request was
// coalesced. Request seed in, bytes out.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/factor_cache.h"
#include "core/stats.h"
#include "service/request.h"

namespace bcclap {
class Runtime;
}

namespace bcclap::service {

struct ServiceOptions {
  // Worker threads serving the queue. 0 = caller-driven: no threads are
  // spawned and requests are served by explicit drain() calls (and by
  // shutdown(), which drains what is left) — the deterministic mode the
  // queue/coalescing tests run in.
  std::size_t workers = 1;
  // Worker-count of each worker's Runtime pool (0 = BCCLAP_THREADS /
  // hardware). Thread count never changes reply bytes, only wall time.
  std::size_t runtime_threads = 1;
  // Bounded queue: submissions past this depth are rejected (queue-full).
  std::size_t queue_capacity = 64;
  // Shared factorization cache: an external cache (factor_cache) wins;
  // otherwise the service creates one of factor_cache_bytes (0 = serve
  // uncached — every warm-path feature degrades gracefully to cold).
  std::size_t factor_cache_bytes = 256u << 20;
  std::shared_ptr<core::FactorCache> factor_cache;
  // Chunking policy of every worker Runtime; part of the factor-cache key
  // and of the determinism contract, so it is service-wide, not per
  // request.
  std::size_t min_work_per_chunk = common::kDefaultMinWorkPerChunk;
  // Maximum width of a coalesced panel (1 disables coalescing).
  std::size_t max_coalesce = 8;
  // Admission bound: a COLD Laplacian request (no resident artifact) on a
  // graph with more vertices than this is rejected ("cold-oversized").
  // 0 = no bound. Warm requests are never size-rejected — their prepare
  // work is already paid for.
  std::size_t max_cold_vertices = 0;
};

enum class Admission : std::uint8_t {
  kAccepted = 0,
  kAcceptedWarm = 1,          // resident artifact: jumped the queue
  kRejectedQueueFull = 2,     // backpressure: resubmit later
  kRejectedColdOversized = 3, // cold prepare larger than the admission bound
  kRejectedShutdown = 4,      // service no longer accepts work
};

// Stable reason string per admission outcome (rejections name their cause).
const char* admission_reason(Admission admission);

struct Submission {
  Admission admission = Admission::kRejectedShutdown;
  std::shared_ptr<PendingReply> reply;  // non-null iff accepted

  bool accepted() const { return reply != nullptr; }
  const char* reason() const { return admission_reason(admission); }
};

// Aggregated service statistics, built from per-request core::RunStats
// plus the queue/admission counters and a consistent FactorCache snapshot.
struct ServiceStats {
  std::size_t accepted = 0;
  std::size_t warm_admissions = 0;  // accepted at the front of the queue
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_cold_oversized = 0;
  std::size_t rejected_shutdown = 0;
  std::size_t served = 0;  // replies fulfilled
  std::size_t failed = 0;  // replies with ReplyStatus::kFailed
  std::size_t coalesced_panels = 0;    // panels assembled from >= 2 singles
  std::size_t coalesced_requests = 0;  // singles served by such panels
  std::size_t queue_high_water = 0;    // deepest queue observed at submit
  // Sum of the per-request RunStats (a coalesced panel's stats are added
  // once — the panel is one facade run).
  core::RunStats totals;
  // Snapshot of the shared cache (zeroed when the service runs uncached).
  core::FactorCache::Stats cache;
};

class SolverService {
 public:
  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

  explicit SolverService(const ServiceOptions& opts = {});
  ~SolverService();  // shutdown(): drains queued work, joins workers

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  // Admission + enqueue. Never blocks and never drops silently: the
  // Submission either carries a PendingReply or names the rejection.
  // Throws std::invalid_argument on an unknown engine key (same contract
  // as the Runtime facade, moved to the service boundary).
  Submission submit(Request req);

  // Serves up to max_requests queued requests on the calling thread
  // (coalesced panels count as one). The drive mode of workers = 0
  // services; safe concurrently with worker threads. Returns the number
  // of requests (not panels) served.
  std::size_t drain(std::size_t max_requests = kNoLimit);

  // Stops admissions, drains every queued request (on the workers, or on
  // the calling thread when workers = 0), and joins the worker threads.
  // Idempotent.
  void shutdown();

  ServiceStats stats() const;
  std::size_t queue_depth() const;
  const ServiceOptions& options() const { return opts_; }
  // The shared cache (null when the service runs uncached).
  const std::shared_ptr<core::FactorCache>& factor_cache() const {
    return cache_;
  }

 private:
  struct Ticket {
    Request req;
    std::shared_ptr<PendingReply> reply;
    bool laplacian = false;  // cache_key below is meaningful
    core::FactorCacheKey cache_key;
    bool fits_panel = false;  // a single the facade accepts (may coalesce)
  };
  // Per-worker serving state: the Runtime is rebuilt when the request
  // seed changes (each Runtime's seed is fixed at construction; traffic
  // that reuses seeds reuses the Runtime).
  struct Worker {
    std::unique_ptr<Runtime> runtime;
  };

  void worker_loop();
  // Pops the front ticket plus every coalescible queued single (lock held).
  void take_batch_locked(std::vector<Ticket>* batch);
  void serve_batch(Worker& worker, std::vector<Ticket>& batch);
  Reply serve_one(Worker& worker, const Request& req);
  Runtime& runtime_for(Worker& worker, std::uint64_t seed);
  void record_served(const std::vector<Ticket>& batch,
                     const core::RunStats& run_stats, std::size_t failed,
                     bool coalesced);

  ServiceOptions opts_;
  std::shared_ptr<core::FactorCache> cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Ticket> queue_;
  bool stopping_ = false;
  ServiceStats stats_;  // cache field filled at snapshot time

  std::vector<std::thread> threads_;
  std::mutex shutdown_mu_;  // serializes shutdown() calls
  bool joined_ = false;
};

}  // namespace bcclap::service
