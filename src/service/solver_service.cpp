#include "service/solver_service.h"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/runtime.h"
#include "graph/fingerprint.h"
#include "laplacian/engine.h"

namespace bcclap::service {

namespace {

bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

}  // namespace

const char* request_type_name(RequestType type) {
  switch (type) {
    case RequestType::kSolve:
      return "solve";
    case RequestType::kSolveMany:
      return "solve_many";
    case RequestType::kSparsify:
      return "sparsify";
    case RequestType::kMcmf:
      return "mcmf";
  }
  return "unknown";
}

const char* admission_reason(Admission admission) {
  switch (admission) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kAcceptedWarm:
      return "accepted-warm";
    case Admission::kRejectedQueueFull:
      return "queue-full";
    case Admission::kRejectedColdOversized:
      return "cold-oversized";
    case Admission::kRejectedShutdown:
      return "shutting-down";
  }
  return "unknown";
}

SolverService::SolverService(const ServiceOptions& opts) : opts_(opts) {
  if (opts_.max_coalesce == 0) opts_.max_coalesce = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  if (opts_.factor_cache) {
    cache_ = opts_.factor_cache;
  } else if (opts_.factor_cache_bytes > 0) {
    cache_ = std::make_shared<core::FactorCache>(opts_.factor_cache_bytes);
  }
  threads_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

SolverService::~SolverService() { shutdown(); }

Submission SolverService::submit(Request req) {
  Ticket ticket;
  ticket.laplacian = req.type == RequestType::kSolve ||
                     req.type == RequestType::kSolveMany;
  if (ticket.laplacian) {
    // The admission key mirrors the Runtime facade's cache key exactly:
    // resolved concrete engine, canonical fingerprint, the request seed
    // and the service-wide chunking policy. resolve() throws
    // std::invalid_argument on unknown keys — fail at the boundary, not
    // on a worker.
    auto& registry = laplacian::EngineRegistry::instance();
    ticket.cache_key.engine = registry.resolve(
        req.engine, req.graph.num_vertices(),
        laplacian::EngineRegistry::laplacian_density(req.graph), req.eps);
    ticket.cache_key.fingerprint = graph::fingerprint(req.graph);
    ticket.cache_key.seed = req.seed;
    ticket.cache_key.min_work_per_chunk = opts_.min_work_per_chunk;
    laplacian::EngineOptions eopt;
    eopt.eps = req.eps;
    eopt.sparsify = req.sparsify;
    ticket.cache_key.options_hash = core::prepare_options_hash(eopt);
  }
  // Residency probe outside any admission consequence for the cache: peek
  // neither counts a hit/miss nor touches the LRU order.
  const bool warm =
      ticket.laplacian && cache_ && cache_->peek(ticket.cache_key) != nullptr;

  Submission out;
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    ++stats_.rejected_shutdown;
    out.admission = Admission::kRejectedShutdown;
    return out;
  }
  if (queue_.size() >= opts_.queue_capacity) {
    ++stats_.rejected_queue_full;
    out.admission = Admission::kRejectedQueueFull;
    return out;
  }
  if (!warm && ticket.laplacian && opts_.max_cold_vertices > 0 &&
      req.graph.num_vertices() > opts_.max_cold_vertices) {
    ++stats_.rejected_cold_oversized;
    out.admission = Admission::kRejectedColdOversized;
    return out;
  }
  ticket.req = std::move(req);
  ticket.reply = std::make_shared<PendingReply>();
  out.reply = ticket.reply;
  if (warm) {
    // Warm-topology requests jump the queue: their serve is apply-only.
    out.admission = Admission::kAcceptedWarm;
    ++stats_.warm_admissions;
    queue_.push_front(std::move(ticket));
  } else {
    out.admission = Admission::kAccepted;
    queue_.push_back(std::move(ticket));
  }
  ++stats_.accepted;
  if (queue_.size() > stats_.queue_high_water) {
    stats_.queue_high_water = queue_.size();
  }
  cv_.notify_one();
  return out;
}

std::size_t SolverService::drain(std::size_t max_requests) {
  Worker worker;
  std::size_t served = 0;
  std::vector<Ticket> batch;
  while (served < max_requests) {
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) break;
      take_batch_locked(&batch);
    }
    serve_batch(worker, batch);
    served += batch.size();
  }
  return served;
}

void SolverService::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (!joined_) {
    // Workers drain the queue before exiting their loop; join therefore
    // waits for every queued request to be fulfilled.
    for (auto& thread : threads_) thread.join();
    threads_.clear();
    joined_ = true;
  }
  // Caller-driven services (workers = 0) drain here, on this thread, so
  // "accepted implies fulfilled" holds in every mode.
  drain();
}

ServiceStats SolverService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  if (cache_) out.cache = cache_->stats();
  return out;
}

std::size_t SolverService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void SolverService::worker_loop() {
  Worker worker;
  std::vector<Ticket> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      take_batch_locked(&batch);
    }
    serve_batch(worker, batch);
  }
}

namespace {

// Coalescing requires agreement on everything that determines the shared
// panel's bytes: the resolved artifact identity (the full cache key — a
// field-by-field comparison, never the hash alone would not do: the key
// already compares every field exactly) plus the apply-time eps and the
// exact prepare-option fields (belt and braces over options_hash).
bool coalesce_compatible(const sparsify::SparsifyOptions& a,
                         const sparsify::SparsifyOptions& b) {
  return same_bits(a.epsilon, b.epsilon) && a.k == b.k && a.t == b.t &&
         same_bits(a.t_constant, b.t_constant) &&
         a.iterations == b.iterations && a.growing_t == b.growing_t;
}

}  // namespace

void SolverService::take_batch_locked(std::vector<Ticket>* batch) {
  batch->push_back(std::move(queue_.front()));
  queue_.pop_front();
  if (batch->front().req.type != RequestType::kSolve ||
      opts_.max_coalesce <= 1) {
    return;
  }
  // The push_back below may reallocate *batch, so the head's matching
  // fields are taken by value — a reference into the vector would dangle.
  const core::FactorCacheKey head_key = batch->front().cache_key;
  const double head_eps = batch->front().req.eps;
  const sparsify::SparsifyOptions head_sparsify = batch->front().req.sparsify;
  for (auto it = queue_.begin();
       it != queue_.end() && batch->size() < opts_.max_coalesce;) {
    if (it->req.type == RequestType::kSolve && it->cache_key == head_key &&
        same_bits(it->req.eps, head_eps) &&
        coalesce_compatible(it->req.sparsify, head_sparsify)) {
      batch->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void SolverService::serve_batch(Worker& worker, std::vector<Ticket>& batch) {
  if (batch.size() == 1) {
    Reply reply = serve_one(worker, batch[0].req);
    const std::size_t failed = reply.status == ReplyStatus::kFailed ? 1 : 0;
    record_served(batch, reply.stats, failed, /*coalesced=*/false);
    batch[0].reply->fulfill(std::move(reply));
    return;
  }

  // Coalesced panel: every ticket is a single-RHS solve agreeing on
  // (fingerprint, seed, engine, prepare options, eps). One solve_many
  // run serves them all; column j is byte-identical to the solo solve
  // (the PR 5 panel contract), so coalescing never changes reply bytes.
  const Request& head = batch[0].req;
  const std::size_t n = head.graph.num_vertices();
  linalg::DenseMatrix panel(n, batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    panel.set_column(j, batch[j].req.b);
  }
  LaplacianSolveOptions lopt;
  lopt.eps = head.eps;
  lopt.sparsify = head.sparsify;
  lopt.engine = batch[0].cache_key.engine;  // the resolved concrete key

  std::vector<Reply> replies(batch.size());
  core::RunStats run_stats;
  std::size_t failed = 0;
  try {
    Runtime& rt = runtime_for(worker, head.seed);
    auto run = rt.solve_laplacian_many(head.graph, panel, lopt);
    run_stats = run.stats;
    for (std::size_t j = 0; j < batch.size(); ++j) {
      replies[j].type = RequestType::kSolve;
      replies[j].panel_width = batch.size();
      replies[j].coalesced = true;
      replies[j].stats = run.stats;
      if (run.usable) {
        replies[j].status = ReplyStatus::kOk;
        replies[j].x = run.x.column(j);
      } else {
        replies[j].status = ReplyStatus::kFailed;
        replies[j].error = "engine factorization failed";
        ++failed;
      }
    }
  } catch (const std::exception& e) {
    for (std::size_t j = 0; j < batch.size(); ++j) {
      replies[j].type = RequestType::kSolve;
      replies[j].panel_width = batch.size();
      replies[j].coalesced = true;
      replies[j].status = ReplyStatus::kFailed;
      replies[j].error = e.what();
    }
    failed = batch.size();
  }
  record_served(batch, run_stats, failed, /*coalesced=*/true);
  for (std::size_t j = 0; j < batch.size(); ++j) {
    batch[j].reply->fulfill(std::move(replies[j]));
  }
}

Reply SolverService::serve_one(Worker& worker, const Request& req) {
  Reply reply;
  reply.type = req.type;
  try {
    Runtime& rt = runtime_for(worker, req.seed);
    switch (req.type) {
      case RequestType::kSolve: {
        LaplacianSolveOptions lopt;
        lopt.eps = req.eps;
        lopt.sparsify = req.sparsify;
        lopt.engine = req.engine;
        auto run = rt.solve_laplacian(req.graph, req.b, lopt);
        reply.stats = run.stats;
        if (run.usable) {
          reply.status = ReplyStatus::kOk;
          reply.x = std::move(run.x);
        } else {
          reply.error = "engine factorization failed";
        }
        break;
      }
      case RequestType::kSolveMany: {
        LaplacianSolveOptions lopt;
        lopt.eps = req.eps;
        lopt.sparsify = req.sparsify;
        lopt.engine = req.engine;
        auto run = rt.solve_laplacian_many(req.graph, req.panel, lopt);
        reply.stats = run.stats;
        if (run.usable) {
          reply.status = ReplyStatus::kOk;
          reply.panel = std::move(run.x);
        } else {
          reply.error = "engine factorization failed";
        }
        break;
      }
      case RequestType::kSparsify: {
        auto run = rt.sparsify(req.graph, req.sparsify);
        reply.stats = run.stats;
        reply.status = ReplyStatus::kOk;
        reply.sparsify = std::move(run.result);
        break;
      }
      case RequestType::kMcmf: {
        auto run = rt.min_cost_max_flow(req.network, req.source, req.sink,
                                        req.mcmf);
        reply.stats = run.stats;
        if (run.result.exact) {
          reply.status = ReplyStatus::kOk;
        } else {
          reply.error = "flow did not round to the exact optimum";
        }
        reply.mcmf = std::move(run.result);
        break;
      }
    }
  } catch (const std::exception& e) {
    reply.status = ReplyStatus::kFailed;
    reply.error = e.what();
  }
  return reply;
}

Runtime& SolverService::runtime_for(Worker& worker, std::uint64_t seed) {
  if (!worker.runtime || worker.runtime->seed() != seed) {
    RuntimeOptions opts;
    opts.threads = opts_.runtime_threads;
    opts.seed = seed;
    opts.min_work_per_chunk = opts_.min_work_per_chunk;
    opts.factor_cache = cache_;
    worker.runtime = std::make_unique<Runtime>(opts);
  }
  return *worker.runtime;
}

void SolverService::record_served(const std::vector<Ticket>& batch,
                                  const core::RunStats& run_stats,
                                  std::size_t failed, bool coalesced) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.served += batch.size();
  stats_.failed += failed;
  stats_.totals += run_stats;
  if (coalesced && batch.size() >= 2) {
    ++stats_.coalesced_panels;
    stats_.coalesced_requests += batch.size();
  }
}

}  // namespace bcclap::service
