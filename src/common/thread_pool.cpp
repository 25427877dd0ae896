#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.h"

namespace bcclap::common {

namespace {

// Workers run inline when re-entered from a pool thread; nested
// parallel_for otherwise deadlocks waiting for workers that are busy
// running the outer loop.
thread_local bool t_inside_worker = false;

// One parallel_for invocation. Owned by shared_ptr so a worker that wakes
// late (or finishes its last chunk after the caller has already returned)
// still holds a valid job and can never touch a successor job's state.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next_chunk{0};

  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t chunks_done = 0;
  std::exception_ptr error;

  void run() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      std::exception_ptr caught;
      try {
        (*fn)(lo, hi);
      } catch (...) {
        caught = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (caught && !error) error = caught;
      if (++chunks_done == num_chunks) done_cv.notify_all();
    }
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return chunks_done == num_chunks; });
  }
};

}  // namespace

std::size_t default_thread_count() {
  // Misspelled values warn once inside positive_count and fall through to
  // the compile-time / hardware default (common/env.h).
  if (const auto v = env::positive_count("BCCLAP_THREADS")) return *v;
#ifdef BCCLAP_DEFAULT_THREADS
  return static_cast<std::size_t>(BCCLAP_DEFAULT_THREADS);
#else
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
#endif
}

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;
  std::shared_ptr<Job> job;  // most recently published job
  // job_seq / shutting_down are atomics so the worker spin phase can poll
  // them without the mutex; they are still only *written* under mu, which
  // keeps the cv predicate race-free.
  std::atomic<std::uint64_t> job_seq{0};
  std::atomic<bool> shutting_down{false};
  std::size_t sleepers = 0;  // workers parked in work_cv.wait (under mu)
  std::vector<std::thread> workers;

  // Spin-then-sleep: kernels like the blocked factorization publish many
  // short parallel regions back to back, and a futex sleep/wake round trip
  // per region costs more than the region itself. Workers therefore poll
  // for the next job briefly before parking on the cv; the publisher skips
  // the notify syscall entirely when nobody is parked.
  static constexpr int kSpinIters = 256;

  void worker_loop() {
    t_inside_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      for (int spin = 0; spin < kSpinIters; ++spin) {
        if (shutting_down.load(std::memory_order_relaxed) ||
            job_seq.load(std::memory_order_acquire) != seen) {
          break;
        }
        std::this_thread::yield();
      }
      std::shared_ptr<Job> j;
      {
        std::unique_lock<std::mutex> lock(mu);
        ++sleepers;
        work_cv.wait(lock, [&] {
          return shutting_down.load(std::memory_order_relaxed) ||
                 job_seq.load(std::memory_order_relaxed) != seen;
        });
        --sleepers;
        if (shutting_down.load(std::memory_order_relaxed)) return;
        seen = job_seq.load(std::memory_order_relaxed);
        j = job;
      }
      if (j) j->run();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : impl_(nullptr), threads_(threads == 0 ? 1 : threads) {
  if (threads_ == 1) return;
  impl_ = new Impl;
  impl_->workers.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutting_down.store(true, std::memory_order_relaxed);
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  // Inline paths: single-threaded pool, a range that is one chunk anyway,
  // or a nested call from a worker thread.
  if (!impl_ || end - begin <= grain || t_inside_worker) {
    for (std::size_t lo = begin; lo < end; lo += grain) {
      fn(lo, std::min(end, lo + grain));
    }
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->num_chunks = (end - begin + grain - 1) / grain;
  bool anyone_sleeping;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->job = job;
    impl_->job_seq.fetch_add(1, std::memory_order_release);
    anyone_sleeping = impl_->sleepers > 0;
  }
  // Spinning workers observe the job_seq bump without a wakeup; the
  // notify syscall is only paid for workers actually parked on the cv.
  if (anyone_sleeping) impl_->work_cv.notify_all();
  job->run();  // the calling thread participates
  job->wait();
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(begin, end, 1, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace bcclap::common
