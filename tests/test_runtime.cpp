// The bcclap::Runtime execution-context API: per-Runtime isolation of the
// determinism contract.
//
// test_network_determinism pins byte-identity between 1-worker and
// N-worker runs; this suite extends the contract to Runtimes: two
// Runtimes with different thread counts, running the n = 56 pipeline
// concurrently from two std::threads, each produce results byte-identical
// to their own single-threaded run. It also pins the historical
// single-configuration contract (one shared process-wide pool, layer
// objects surviving a reset) to Runtime::process_default().
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/bcclap.h"
#include "graph/generators.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

bool bitwise_equal(const linalg::Vec& a, const linalg::Vec& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

graph::Graph pipeline_graph() {
  rng::Stream s(2022);
  return graph::random_regularish(56, 24, 4, s);
}

sparsify::SparsifyOptions pipeline_sparsify_options() {
  return testsupport::small_sparsify_options(0.5, 2, 3);
}

// Everything a pipeline run produces, field-for-field comparable.
struct PipelineOut {
  std::vector<graph::EdgeId> sparsifier_edges;
  std::int64_t sparsify_rounds = 0;
  std::size_t sparsify_iterations = 0;
  linalg::Vec x;
  std::int64_t solve_rounds = 0;
  std::size_t solve_iterations = 0;
};

PipelineOut run_pipeline(Runtime& rt, const graph::Graph& g) {
  PipelineOut out;
  const auto sp = rt.sparsify(g, pipeline_sparsify_options());
  out.sparsifier_edges = sp.result.original_edge;
  out.sparsify_rounds = sp.stats.rounds;
  out.sparsify_iterations = sp.stats.iterations;

  linalg::Vec b(g.num_vertices(), 0.0);
  b[0] = 1.0;
  b[g.num_vertices() - 1] = -1.0;
  LaplacianSolveOptions lopt;
  lopt.sparsify = pipeline_sparsify_options();
  const auto solve = rt.solve_laplacian(g, b, lopt);
  EXPECT_TRUE(solve.usable);
  out.x = solve.x;
  out.solve_rounds = solve.stats.rounds;
  out.solve_iterations = solve.stats.iterations;
  return out;
}

void expect_identical(const PipelineOut& a, const PipelineOut& b) {
  EXPECT_EQ(a.sparsifier_edges, b.sparsifier_edges);
  EXPECT_EQ(a.sparsify_rounds, b.sparsify_rounds);
  EXPECT_EQ(a.sparsify_iterations, b.sparsify_iterations);
  EXPECT_TRUE(bitwise_equal(a.x, b.x));
  EXPECT_EQ(a.solve_rounds, b.solve_rounds);
  EXPECT_EQ(a.solve_iterations, b.solve_iterations);
}

TEST(Runtime, TwoConcurrentRuntimesMatchTheirOwnSingleThreadRuns) {
  const auto g = pipeline_graph();

  RuntimeOptions ref_a_opts;
  ref_a_opts.threads = 1;
  ref_a_opts.seed = 7;
  Runtime ref_a(ref_a_opts);
  const PipelineOut want_a = run_pipeline(ref_a, g);

  RuntimeOptions ref_b_opts;
  ref_b_opts.threads = 1;
  ref_b_opts.seed = 9;
  Runtime ref_b(ref_b_opts);
  const PipelineOut want_b = run_pipeline(ref_b, g);

  // Different seeds genuinely produce different pipelines (otherwise the
  // cross-checks below would be vacuous).
  ASSERT_NE(want_a.sparsifier_edges, want_b.sparsifier_edges);

  // Two differently-configured Runtimes, concurrently, each on its own
  // pool. The 2- and 4-worker runs must reproduce their 1-worker
  // references byte for byte.
  RuntimeOptions a_opts;
  a_opts.threads = 2;
  a_opts.seed = 7;
  Runtime rt_a(a_opts);
  RuntimeOptions b_opts;
  b_opts.threads = 4;
  b_opts.seed = 9;
  Runtime rt_b(b_opts);
  ASSERT_EQ(rt_a.num_threads(), 2u);
  ASSERT_EQ(rt_b.num_threads(), 4u);

  PipelineOut got_a, got_b;
  std::thread ta([&] { got_a = run_pipeline(rt_a, g); });
  std::thread tb([&] { got_b = run_pipeline(rt_b, g); });
  ta.join();
  tb.join();

  expect_identical(got_a, want_a);
  expect_identical(got_b, want_b);
}

TEST(Runtime, RepeatedFacadeCallsAreCallOrderIndependent) {
  // Facade randomness derives from the Runtime seed, not from root-stream
  // position: interleaving root_stream() draws or repeating calls does not
  // change any result.
  const auto g = pipeline_graph();
  RuntimeOptions opts;
  opts.threads = 1;
  opts.seed = 21;
  Runtime rt(opts);
  const auto first = rt.sparsify(g, pipeline_sparsify_options());
  (void)rt.root_stream().next_u64();
  const auto second = rt.sparsify(g, pipeline_sparsify_options());
  EXPECT_EQ(first.result.original_edge, second.result.original_edge);
  EXPECT_EQ(first.stats.rounds, second.stats.rounds);
}

TEST(Runtime, FacadeSparsifyCouplesWithAprioriReference) {
  // The Runtime seed is the pipeline seed: the Lemma 3.3 coupling against
  // the centralized a-priori sampler holds through the facade.
  const auto g = pipeline_graph();
  RuntimeOptions opts;
  opts.threads = 2;
  opts.seed = 99;
  Runtime rt(opts);
  const auto adhoc = rt.sparsify(g, pipeline_sparsify_options());
  const auto apriori =
      sparsify::spectral_sparsify_apriori(
          Runtime::process_default().context().with_seed(99), g,
          pipeline_sparsify_options());
  EXPECT_EQ(adhoc.result.original_edge, apriori.original_edge);
}

TEST(Runtime, DirectSolverOnProcessDefaultMatchesRuntimePath) {
  // The historical contract: constructing SparsifiedLaplacianSolver
  // directly on the process-default context (with a facade-matching seed)
  // produces exactly what a Runtime with that seed produces.
  const auto g = pipeline_graph();
  linalg::Vec b(g.num_vertices(), 0.0);
  b[0] = 1.0;
  b[g.num_vertices() - 1] = -1.0;

  RuntimeOptions opts;
  opts.threads = 1;
  opts.seed = 404;
  Runtime rt(opts);
  LaplacianSolveOptions lopt;
  lopt.sparsify = pipeline_sparsify_options();
  const auto facade = rt.solve_laplacian(g, b, lopt);

  laplacian::SparsifiedLaplacianSolver direct(
      Runtime::process_default().context().with_seed(404), g,
      pipeline_sparsify_options());
  ASSERT_TRUE(direct.usable());
  const auto x = direct.solve(b, 1e-8);
  EXPECT_TRUE(bitwise_equal(facade.x, x));
  EXPECT_EQ(facade.preprocessing_rounds, direct.preprocessing_rounds());
}

TEST(Runtime, ResetProcessDefaultRebuildsWorkerCount) {
  const std::size_t before = Runtime::process_default().num_threads();
  Runtime::reset_process_default(3);
  EXPECT_EQ(Runtime::process_default().num_threads(), 3u);
  // 0 = env-resolved, the same resolution a fresh RuntimeOptions{} gets.
  Runtime::reset_process_default(0);
  EXPECT_EQ(Runtime::process_default().num_threads(),
            common::default_thread_count());
  Runtime::reset_process_default(before);
  EXPECT_EQ(Runtime::process_default().num_threads(), before);
}

TEST(Runtime, FactoredObjectsSurviveProcessDefaultReset) {
  // reset_process_default retires (drains) the old default Runtime
  // instead of destroying it: an object factored against the old default
  // keeps a valid pool and keeps producing identical results (inline
  // execution on a drained pool has the same chunk boundaries).
  const auto g = pipeline_graph();
  const auto lap = graph::laplacian(g);
  const auto factor = linalg::ComponentLaplacianFactor::factor(
      Runtime::process_default().context(), lap);
  ASSERT_TRUE(factor.has_value());
  linalg::Vec b(g.num_vertices(), 0.0);
  b[0] = 1.0;
  b[g.num_vertices() - 1] = -1.0;
  const auto before = factor->solve(Runtime::process_default().context(), b);

  const std::size_t prev = Runtime::process_default().num_threads();
  Runtime::reset_process_default(prev + 1);
  // The post-reset default context targets the NEW pool; the factor no
  // longer pins the retired one.
  const auto after = factor->solve(Runtime::process_default().context(), b);
  Runtime::reset_process_default(prev);
  EXPECT_TRUE(bitwise_equal(before, after));
}

TEST(Runtime, MinWorkPerChunkIsPerRuntime) {
  // A tiny min_work_per_chunk changes chunk grains (and the grouping of
  // floating-point partials) but each configuration remains internally
  // deterministic: 1 worker vs 4 workers at the same policy agree bitwise.
  const auto g = pipeline_graph();
  linalg::Vec b(g.num_vertices(), 0.0);
  b[0] = 1.0;
  b[g.num_vertices() - 1] = -1.0;

  const auto run = [&](std::size_t threads, std::size_t min_work) {
    RuntimeOptions opts;
    opts.threads = threads;
    opts.seed = 5;
    opts.min_work_per_chunk = min_work;
    Runtime rt(opts);
    LaplacianSolveOptions lopt;
    lopt.sparsify = pipeline_sparsify_options();
    return rt.solve_laplacian(g, b, lopt).x;
  };
  EXPECT_TRUE(bitwise_equal(run(1, 64), run(4, 64)));
  EXPECT_TRUE(bitwise_equal(run(1, common::kDefaultMinWorkPerChunk),
                            run(4, common::kDefaultMinWorkPerChunk)));
}

TEST(Runtime, FacadeStatsCarryRoundsIterationsAndWallTime) {
  const auto g = pipeline_graph();
  RuntimeOptions opts;
  opts.threads = 1;
  opts.seed = 17;
  Runtime rt(opts);

  const auto sp = rt.sparsify(g, pipeline_sparsify_options());
  EXPECT_GT(sp.stats.rounds, 0);
  EXPECT_GT(sp.stats.iterations, 0u);
  EXPECT_GE(sp.stats.wall_seconds, 0.0);

  linalg::Vec b(g.num_vertices(), 0.0);
  b[0] = 1.0;
  b[g.num_vertices() - 1] = -1.0;
  LaplacianSolveOptions lopt;
  lopt.sparsify = pipeline_sparsify_options();
  const auto solve = rt.solve_laplacian(g, b, lopt);
  ASSERT_TRUE(solve.usable);
  EXPECT_GT(solve.preprocessing_rounds, 0);
  EXPECT_GT(solve.stats.rounds, solve.preprocessing_rounds);
  EXPECT_GT(solve.stats.iterations, 0u);
  EXPECT_GE(solve.stats.wall_seconds, 0.0);
}

TEST(Runtime, FacadeMinCostMaxFlowMatchesBaseline) {
  rng::Stream gs(3);
  const std::size_t n = 6;
  const auto g = graph::random_flow_network(n, 8, 4, 3, gs);

  RuntimeOptions opts;
  opts.threads = 2;
  opts.seed = 12;
  Runtime rt(opts);
  const auto run = rt.min_cost_max_flow(g, 0, n - 1);
  ASSERT_TRUE(run.result.exact);
  EXPECT_EQ(run.stats.rounds, run.result.rounds);
  EXPECT_EQ(run.stats.iterations, run.result.path_steps);
  EXPECT_EQ(run.stats.steps, run.result.newton_steps);
  EXPECT_GT(run.stats.rounds, 0);
  EXPECT_GE(run.stats.wall_seconds, 0.0);

  const auto baseline = flow::min_cost_max_flow_ssp(g, 0, n - 1);
  EXPECT_EQ(run.result.flow.value, baseline.value);
  EXPECT_EQ(run.result.flow.cost, baseline.cost);
}

TEST(Runtime, ComponentFactorOutlivesFactoringRuntime) {
  // Regression (PR 6 bugfix sweep): the factor used to capture the
  // factoring Runtime's raw ThreadPool* and dereference it at solve time
  // — a dangling pointer once that Runtime was destroyed. The context is
  // now a per-call argument, so solving on a different, live Runtime is
  // well-defined.
  const auto g = pipeline_graph();
  const auto lap = graph::laplacian(g);
  linalg::Vec b(g.num_vertices(), 0.0);
  b[0] = 1.0;
  b[g.num_vertices() - 1] = -1.0;

  std::optional<linalg::ComponentLaplacianFactor> factor;
  {
    RuntimeOptions opts;
    opts.threads = 3;
    opts.seed = 9;
    Runtime short_lived(opts);
    factor = linalg::ComponentLaplacianFactor::factor(short_lived.context(),
                                                      lap);
  }  // the Runtime the factor was built on is gone
  ASSERT_TRUE(factor.has_value());

  RuntimeOptions opts;
  opts.threads = 2;
  opts.seed = 9;
  Runtime rt(opts);
  const auto x = factor->solve(rt.context(), b);
  // The factor is byte-deterministic, so it matches one built on the
  // solving Runtime itself.
  const auto fresh = linalg::ComponentLaplacianFactor::factor(rt.context(),
                                                              lap);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(bitwise_equal(x, fresh->solve(rt.context(), b)));
}

TEST(Runtime, FacadeHandlesOneAndTwoVertexGraphs) {
  // Regression (PR 6 bugfix sweep): a 1-node graph used to make
  // LaplacianFactor::factor return nullopt, which Release builds turned
  // into a null deref inside ExactLaplacianSolver. L = 0 solves to x = 0.
  RuntimeOptions opts;
  opts.threads = 2;
  opts.seed = 31;
  Runtime rt(opts);
  LaplacianSolveOptions lopt;
  lopt.sparsify = pipeline_sparsify_options();

  const graph::Graph one(1);
  const auto r1 = rt.solve_laplacian(one, linalg::Vec{4.0}, lopt);
  ASSERT_TRUE(r1.usable);
  ASSERT_EQ(r1.x.size(), 1u);
  EXPECT_EQ(r1.x[0], 0.0);

  graph::Graph two(2);
  two.add_edge(0, 1, 2.0);
  const auto r2 = rt.solve_laplacian(two, linalg::Vec{1.0, -1.0}, lopt);
  ASSERT_TRUE(r2.usable);
  ASSERT_EQ(r2.x.size(), 2u);
  // L x = b with L = [[2,-2],[-2,2]]: x = (0.25, -0.25) + kernel shift.
  EXPECT_NEAR(r2.x[0] - r2.x[1], 0.5, 1e-9);

  const auto rm = rt.solve_laplacian_many(
      two, linalg::DenseMatrix(2, 1), lopt);
  ASSERT_TRUE(rm.usable);
  EXPECT_EQ(rm.x.rows(), 2u);
}

TEST(Runtime, FacadeRejectsWrongSizedRhs) {
  // The facade validates dimensions explicitly (PR 6 bugfix sweep);
  // asserts compile out in Release, so this must be a real check.
  RuntimeOptions opts;
  opts.threads = 1;
  opts.seed = 77;
  Runtime rt(opts);
  const auto g = pipeline_graph();
  LaplacianSolveOptions lopt;
  lopt.sparsify = pipeline_sparsify_options();
  EXPECT_THROW(rt.solve_laplacian(g, linalg::Vec(3, 0.0), lopt),
               std::invalid_argument);
  EXPECT_THROW(
      rt.solve_laplacian_many(g, linalg::DenseMatrix(3, 2), lopt),
      std::invalid_argument);
}

}  // namespace
}  // namespace bcclap
