// E12 (Figure 1): the full pipeline on one network —
// spanner -> sparsifier -> Laplacian solver -> Gremban SDD engine ->
// LP solver -> exact min-cost max-flow, with cumulative round accounting.
//
// Runs on the shared harness (bench/support/harness.h) and is the binary
// scripts/bench.sh uses for the thread-scaling trajectory: the counters
// (rounds, sizes, epsilons, fingerprint) must be identical between
// BCCLAP_THREADS=1 and BCCLAP_THREADS=N runs — only wall time may differ.
#include "support/harness.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "core/factor_cache.h"
#include "core/runtime.h"
#include "flow/mcmf_solver.h"
#include "flow/ssp.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "laplacian/bcc_solver.h"
#include "laplacian/engine.h"
#include "laplacian/prepared.h"
#include "linalg/amd.h"
#include "linalg/vector_ops.h"
#include "sparsify/verifier.h"

namespace {

using namespace bcclap;

void pipeline_sparsify_and_solve(bench::State& s, std::size_t n) {
  rng::Stream gstream(n);
  const auto g = graph::complete(n, 4, gstream);
  sparsify::SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.k = 2;
  opt.t = 3;
  const auto ctx = bench::bench_context(s.iteration() + 1);
  const auto solver = laplacian::prepare_sparsified_chebyshev(ctx, g, opt);
  const auto check = sparsify::check_sparsifier(g, *solver->sparsifier());
  linalg::Vec b(n, 0.0);
  b[0] = 1.0;
  b[n - 1] = -1.0;
  laplacian::EngineOptions eopt;
  eopt.eps = 1e-8;
  core::RunStats stats;
  const auto x = solver->apply(ctx, b, eopt, &stats);

  s.counter("n", static_cast<double>(n));
  s.counter("achieved_eps", check.valid ? check.achieved_epsilon() : 99.0);
  s.counter("preproc_rounds",
            static_cast<double>(solver->preprocessing_rounds()));
  s.counter("solve_rounds", static_cast<double>(stats.rounds));
  s.counter("sparsifier_edges",
            static_cast<double>(solver->sparsifier()->num_edges()));
  // Determinism fingerprint: solution norm is a function of every upstream
  // choice (spanner, sampling, solver iterations).
  s.counter("fingerprint_xnorm", linalg::norm2(x));
}

// PR 4: two Runtimes — one pinned to 1 worker, one on the env-resolved
// count — running the same n-node pipeline concurrently from two threads.
// The `identical` counter asserts the per-Runtime determinism contract
// in-run (byte-identical solutions and equal rounds across the two
// differently-threaded Runtimes), so the cross-config counter gate of
// scripts/bench.sh doubles as a concurrency determinism check.
void pipeline_concurrent_runtimes(bench::State& s, std::size_t n) {
  rng::Stream gstream(n);
  const auto g = graph::complete(n, 4, gstream);
  LaplacianSolveOptions lopt;
  lopt.sparsify.epsilon = 0.5;
  lopt.sparsify.k = 2;
  lopt.sparsify.t = 3;
  linalg::Vec b(n, 0.0);
  b[0] = 1.0;
  b[n - 1] = -1.0;

  RuntimeOptions a_opts;
  a_opts.threads = 1;
  a_opts.seed = 11;
  Runtime rt_a(a_opts);
  RuntimeOptions b_opts;
  b_opts.threads = 0;  // BCCLAP_THREADS / hardware
  b_opts.seed = 11;
  Runtime rt_b(b_opts);

  LaplacianRun ra, rb;
  std::thread ta([&] { ra = rt_a.solve_laplacian(g, b, lopt); });
  std::thread tb([&] { rb = rt_b.solve_laplacian(g, b, lopt); });
  ta.join();
  tb.join();

  const bool identical =
      ra.usable && rb.usable && !ra.x.empty() &&
      ra.x.size() == rb.x.size() &&
      std::memcmp(ra.x.data(), rb.x.data(),
                  ra.x.size() * sizeof(double)) == 0 &&
      ra.stats.rounds == rb.stats.rounds &&
      ra.stats.iterations == rb.stats.iterations;
  s.counter("n", static_cast<double>(n));
  s.counter("identical", identical ? 1.0 : 0.0);
  s.counter("rounds", static_cast<double>(ra.stats.rounds));
  s.counter("fingerprint_xnorm", linalg::norm2(ra.x));
}

// PR 5: the batched facade — one rt.solve_laplacian_many call sparsifies
// and factors once for a whole k-wide panel. Bounded-degree sparse
// generator, so the n = 256 batched cases do not inherit the dense
// pipeline case's wall time.
void pipeline_batched_solve(bench::State& s, std::size_t n, std::size_t k) {
  rng::Stream gstream(n * 3 + 1);
  const auto g = graph::random_regularish(n, 8, 4, gstream);
  RuntimeOptions opts;
  opts.threads = 0;  // BCCLAP_THREADS / hardware
  opts.seed = 77;
  Runtime rt(opts);
  LaplacianSolveOptions lopt;
  lopt.sparsify.epsilon = 0.5;
  lopt.sparsify.k = 2;
  lopt.sparsify.t = 2;
  rng::Stream bstream(n * 17 + k);
  linalg::DenseMatrix b(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) b(i, j) = bstream.next_gaussian();
  }
  const auto run = rt.solve_laplacian_many(g, b, lopt);
  s.counter("n", static_cast<double>(n));
  s.counter("k", static_cast<double>(k));
  s.counter("usable", run.usable ? 1.0 : 0.0);
  s.counter("rounds", static_cast<double>(run.stats.rounds));
  s.counter("panels", static_cast<double>(run.stats.panels));
  double frob = 0.0;
  for (std::size_t i = 0; i < run.x.rows(); ++i) {
    const double* xi = run.x.row_data(i);
    for (std::size_t j = 0; j < run.x.cols(); ++j) frob += xi[j] * xi[j];
  }
  s.counter("fingerprint_xfrob", std::sqrt(frob));
}

// PR 6: the sparse-first factorization stack at scales the dense kernel
// cannot reach (n = 10^4 would need two 800 MB dense triangles and ~3x
// the arithmetic). Bounded-degree sparse generator; the facade's
// sparse_factors counter doubles as the dispatch gate in scripts/bench.sh
// — the preconditioner factorization must actually run on the sparse
// path at these sizes. eps = 1e-4 bounds the Chebyshev iteration count
// so the case measures the factorization stack, not iteration volume.
void pipeline_sparse_solve(bench::State& s, std::size_t n, std::size_t k) {
  rng::Stream gstream(n * 3 + 1);
  const auto g = graph::random_regularish(n, 8, 4, gstream);
  RuntimeOptions opts;
  opts.threads = 0;  // BCCLAP_THREADS / hardware
  opts.seed = 77;
  Runtime rt(opts);
  LaplacianSolveOptions lopt;
  lopt.eps = 1e-4;
  lopt.sparsify.epsilon = 0.5;
  lopt.sparsify.k = 2;
  lopt.sparsify.t = 2;
  // Pinned: at these sizes "auto" now resolves to exact-sparse (PR 7 —
  // see pipeline_engine_auto below); this trajectory case keeps measuring
  // the sparsified pipeline's factorization stack, fingerprints unchanged.
  lopt.engine = "sparsified-chebyshev";
  s.counter("n", static_cast<double>(n));
  s.counter("k", static_cast<double>(k));
  // Factor-phase split (PR 10): supernode/fill counts are functions of
  // the pattern (counter-gated); the phase walls are clocks and report
  // through the timings channel only.
  const auto report_phases = [&s](const core::RunStats& st) {
    s.counter("supernodes", static_cast<double>(st.supernodes));
    s.counter("factor_fill_nnz", static_cast<double>(st.factor_fill_nnz));
    s.timing("ordering_ms", st.ordering_seconds * 1e3);
    s.timing("symbolic_ms", st.symbolic_seconds * 1e3);
    s.timing("numeric_ms", st.numeric_seconds * 1e3);
  };
  if (k == 1) {
    linalg::Vec b(n, 0.0);
    b[0] = 1.0;
    b[n - 1] = -1.0;
    const auto run = rt.solve_laplacian(g, b, lopt);
    s.counter("usable", run.usable ? 1.0 : 0.0);
    s.counter("iterations", static_cast<double>(run.stats.iterations));
    s.counter("sparse_factors", static_cast<double>(run.stats.sparse_factors));
    s.counter("dense_factors", static_cast<double>(run.stats.dense_factors));
    s.counter("fingerprint_xnorm", linalg::norm2(run.x));
    report_phases(run.stats);
    return;
  }
  rng::Stream bstream(n * 17 + k);
  linalg::DenseMatrix b(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) b(i, j) = bstream.next_gaussian();
  }
  const auto run = rt.solve_laplacian_many(g, b, lopt);
  s.counter("usable", run.usable ? 1.0 : 0.0);
  s.counter("iterations", static_cast<double>(run.stats.iterations));
  s.counter("sparse_factors", static_cast<double>(run.stats.sparse_factors));
  s.counter("dense_factors", static_cast<double>(run.stats.dense_factors));
  double frob = 0.0;
  for (std::size_t i = 0; i < run.x.rows(); ++i) {
    const double* xi = run.x.row_data(i);
    for (std::size_t j = 0; j < run.x.cols(); ++j) frob += xi[j] * xi[j];
  }
  s.counter("fingerprint_xfrob", std::sqrt(frob));
  report_phases(run.stats);
}

// PR 10: the AMD rewrite measured against the retained exact-MD reference
// on the n = 10^4 instance's sparsified preconditioner topology. Wall
// readings go in the timings channel; the orderings' cutoffs and fill
// counts are pattern-determined and ride the counter gate.
void ordering_amd_vs_exact(bench::State& s, std::size_t n) {
  rng::Stream gstream(n * 3 + 1);
  const auto g = graph::random_regularish(n, 8, 4, gstream);
  const auto a = graph::laplacian_csc(g);
  const auto t0 = std::chrono::steady_clock::now();
  const auto amd = linalg::amd_order(a);
  const auto t1 = std::chrono::steady_clock::now();
  const auto exact = linalg::exact_min_degree_order(a);
  const auto t2 = std::chrono::steady_clock::now();
  s.timing("amd_ms",
           std::chrono::duration<double, std::milli>(t1 - t0).count());
  s.timing("exact_md_ms",
           std::chrono::duration<double, std::milli>(t2 - t1).count());
  s.counter("n", static_cast<double>(n));
  s.counter("amd_t", static_cast<double>(amd.t));
  s.counter("exact_t", static_cast<double>(exact.t));
  s.counter("amd_fill", static_cast<double>(linalg::ordering_fill_nnz(a, amd)));
  s.counter("exact_fill",
            static_cast<double>(linalg::ordering_fill_nnz(a, exact)));
}

// PR 7: the engine registry's auto-tuner end to end — "auto" (the facade
// default) must route this large sparse instance to the exact-sparse
// engine. The engine_is_exact_sparse counter doubles as a selection gate:
// a tuner regression that sends it back to the sparsified pipeline (or
// anywhere else) flips the counter and trips the bench determinism check.
void pipeline_engine_auto(bench::State& s, std::size_t n) {
  rng::Stream gstream(n * 3 + 1);
  const auto g = graph::random_regularish(n, 8, 4, gstream);
  RuntimeOptions opts;
  opts.threads = 0;  // BCCLAP_THREADS / hardware
  opts.seed = 77;
  Runtime rt(opts);
  LaplacianSolveOptions lopt;
  lopt.eps = 1e-4;
  linalg::Vec b(n, 0.0);
  b[0] = 1.0;
  b[n - 1] = -1.0;
  const auto run = rt.solve_laplacian(g, b, lopt);
  s.counter("n", static_cast<double>(n));
  s.counter("usable", run.usable ? 1.0 : 0.0);
  s.counter("engine_is_exact_sparse",
            run.stats.engine == "exact-sparse" ? 1.0 : 0.0);
  s.counter("sparse_factors", static_cast<double>(run.stats.sparse_factors));
  s.counter("dense_factors", static_cast<double>(run.stats.dense_factors));
  s.counter("fingerprint_xnorm", linalg::norm2(run.x));
}

// PR 8: the factorization cache end to end — one Runtime with a private
// cache solves the same instance cold then warm. The warm run must hit
// the cache and skip every unit of prepare work (warm_sparsify_count = 0)
// while reproducing the uncached facade's bytes exactly
// (identical_to_uncached = 1). All counters are thread-count invariant,
// so the case rides the scripts/bench.sh cross-config gate.
void pipeline_cached_solve(bench::State& s, std::size_t n) {
  rng::Stream gstream(n * 3 + 1);
  const auto g = graph::random_regularish(n, 8, 4, gstream);
  LaplacianSolveOptions lopt;
  lopt.eps = 1e-4;
  lopt.sparsify.epsilon = 0.5;
  lopt.sparsify.k = 2;
  lopt.sparsify.t = 2;
  lopt.engine = "sparsified-chebyshev";
  linalg::Vec b(n, 0.0);
  b[0] = 1.0;
  b[n - 1] = -1.0;

  RuntimeOptions opts;
  opts.threads = 0;  // BCCLAP_THREADS / hardware
  opts.seed = 77;
  opts.factor_cache_bytes = 256u << 20;
  Runtime rt(opts);
  const auto cold = rt.solve_laplacian(g, b, lopt);
  const auto warm = rt.solve_laplacian(g, b, lopt);

  RuntimeOptions plain = opts;
  plain.factor_cache_bytes = 0;
  Runtime uncached_rt(plain);
  const auto uncached = uncached_rt.solve_laplacian(g, b, lopt);

  const bool identical =
      cold.usable && warm.usable && uncached.usable && !cold.x.empty() &&
      cold.x.size() == warm.x.size() && cold.x.size() == uncached.x.size() &&
      std::memcmp(cold.x.data(), warm.x.data(),
                  cold.x.size() * sizeof(double)) == 0 &&
      std::memcmp(cold.x.data(), uncached.x.data(),
                  cold.x.size() * sizeof(double)) == 0;
  s.counter("n", static_cast<double>(n));
  s.counter("cold_cache_misses",
            static_cast<double>(cold.stats.cache_misses));
  s.counter("warm_cache_hits", static_cast<double>(warm.stats.cache_hits));
  s.counter("warm_sparsify_count",
            static_cast<double>(warm.stats.sparsify_count));
  s.counter("identical_to_uncached", identical ? 1.0 : 0.0);
  s.counter("fingerprint_xnorm", linalg::norm2(warm.x));
  // What the cached artifact keeps resident (the sparsifier's H factor):
  // a pure function of the prepared bytes, so it is thread-count
  // invariant and the determinism gate covers it.
  s.counter("cache_resident_bytes",
            static_cast<double>(rt.factor_cache()->stats().resident_bytes));
}

void pipeline_flow_full_stack(bench::State& s, std::size_t n) {
  rng::Stream gstream(s.iteration() * 37 + n);
  const auto g = graph::random_flow_network(n, n + 4, 3, 3, gstream);
  const auto baseline = flow::min_cost_max_flow_ssp(g, 0, n - 1);
  flow::McmfOptions opt;
  opt.seed = s.iteration() + 9;
  std::uint64_t engine_seed = 5000;
  opt.lp.gram_factory = [&engine_seed](const linalg::DenseMatrix& gram) {
    return laplacian::EngineRegistry::instance().create_sdd(
        "sparsified-chebyshev", bench::bench_context(engine_seed++), gram, {});
  };
  // The sparsified engine is expensive per solve; bound the centering
  // work and skip boosting retries.
  opt.lp.epsilon = 1e-2;
  opt.lp.max_center_steps = 25;
  opt.max_retries = 0;
  const auto ipm = flow::min_cost_max_flow_ipm(bench::bench_context(opt.seed),
                                               g, 0, n - 1, opt);
  s.counter("n", static_cast<double>(n));
  s.counter("exact_match",
            (ipm.exact && ipm.flow.value == baseline.value &&
             ipm.flow.cost == baseline.cost)
                ? 1.0
                : 0.0);
  s.counter("rounds", static_cast<double>(ipm.rounds));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_pipeline");
  for (const std::size_t n : {24u, 40u, 56u}) {
    h.add("pipeline_sparsify_and_solve/n=" + std::to_string(n),
          [n](bench::State& s) { pipeline_sparsify_and_solve(s, n); });
  }
  // PR 3: n >= 256 pipeline instance, where per-node compute (not pool
  // dispatch) dominates. Run exactly once per invocation — the sparsifier
  // broadcasts O(n^2) words per superstep at this size.
  h.add(
      "pipeline_sparsify_and_solve/n=256",
      [](bench::State& s) { pipeline_sparsify_and_solve(s, 256); },
      /*repeats_override=*/1, /*warmup_override=*/0);
  // PR 4: 2 Runtimes x n=128 pipeline, concurrently. Quadratic broadcast
  // volume at this size — run exactly once per invocation.
  h.add(
      "pipeline_concurrent_runtimes/n=128",
      [](bench::State& s) { pipeline_concurrent_runtimes(s, 128); },
      /*repeats_override=*/1, /*warmup_override=*/0);
  // The full-stack IPM case is multi-second; run it exactly once.
  h.add(
      "pipeline_flow_full_stack/n=5",
      [](bench::State& s) { pipeline_flow_full_stack(s, 5); },
      /*repeats_override=*/1, /*warmup_override=*/0);
  // PR 5: batched facade at n = 256 (sparse generator), k = 1 / 8 / 32.
  // Each call re-sparsifies (that is the amortization being measured);
  // run each exactly once.
  for (const std::size_t k : {1u, 8u, 32u}) {
    h.add(
        "pipeline_batched_solve/n=256/k=" + std::to_string(k),
        [k](bench::State& s) { pipeline_batched_solve(s, 256, k); },
        /*repeats_override=*/1, /*warmup_override=*/0);
  }
  // PR 6: sparse-first factorization at n far past the dense wall
  // (single solve and a k = 32 panel per size). Multi-second bodies —
  // run each exactly once.
  for (const std::size_t n : {1024u, 4096u, 10000u}) {
    h.add(
        "pipeline_sparse_solve/n=" + std::to_string(n),
        [n](bench::State& s) { pipeline_sparse_solve(s, n, 1); },
        /*repeats_override=*/1, /*warmup_override=*/0);
    h.add(
        "pipeline_sparse_batched/n=" + std::to_string(n) + "/k=32",
        [n](bench::State& s) { pipeline_sparse_solve(s, n, 32); },
        /*repeats_override=*/1, /*warmup_override=*/0);
  }
  // PR 10: AMD vs the exact-MD reference on the n = 10^4 topology —
  // the ordering-speedup gate of scripts/bench.sh reads this case's
  // timings. The exact ordering is multi-second; run exactly once.
  h.add(
      "ordering_amd_vs_exact/n=10000",
      [](bench::State& s) { ordering_amd_vs_exact(s, 10000); },
      /*repeats_override=*/1, /*warmup_override=*/0);
  // PR 8: cold + warm cached solve at n = 1024 (three full solves per
  // body, two of them prepare) — run exactly once.
  h.add(
      "pipeline_cached_solve/n=1024",
      [](bench::State& s) { pipeline_cached_solve(s, 1024); },
      /*repeats_override=*/1, /*warmup_override=*/0);
  // PR 7: the auto-tuner routing the n = 1024 sparse instance to the
  // exact-sparse engine (one direct factorization instead of the
  // sparsify + Chebyshev pipeline).
  h.add(
      "pipeline_engine_auto/n=1024",
      [](bench::State& s) { pipeline_engine_auto(s, 1024); },
      /*repeats_override=*/1, /*warmup_override=*/0);
  return h.run(argc, argv);
}
