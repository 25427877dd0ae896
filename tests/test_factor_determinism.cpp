// 1-vs-N-thread byte-identity for the PR 3 parallel factorization stack:
// the blocked LDLT (panel + trailing-tile fan-out), the per-component
// Laplacian factor, and the spanner's pure-oracle sampling fast path the
// sparsifier rides on. These complement test_network_determinism.cpp: the
// network contract says traffic is thread-count invariant; this suite says
// the *numerics* are — factors and solutions compare bitwise, not within
// tolerance.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/runtime.h"
#include "graph/generators.h"
#include "graph/laplacian.h"
#include "linalg/cholesky.h"
#include "spanner/probabilistic_spanner.h"
#include "sparsify/spectral_sparsify.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

// Runs fn with a context drawn from a dedicated `threads`-worker Runtime —
// the scoped replacement for the retired process-wide thread override.
// The pool dies with the Runtime, so suite order does not matter.
template <typename Fn>
auto with_threads(std::size_t threads, Fn&& fn) {
  RuntimeOptions opts;
  opts.threads = threads;
  Runtime rt(opts);
  return fn(rt.context());
}

void expect_bitwise_equal(const linalg::Vec& a, const linalg::Vec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(FactorDeterminism, BlockedLdltIsThreadCountInvariant) {
  // n = 200 spans four 64-wide block columns, so every panel and trailing
  // tile shape occurs. The factor is observed through solves against
  // several right-hand sides (solve itself is sequential, so bitwise-equal
  // solutions mean bitwise-equal factors).
  const std::size_t n = 200;
  const auto run = [&](std::size_t threads) {
    return with_threads(threads, [&](const common::Context& ctx) {
      rng::Stream stream(41);
      const auto a = testsupport::random_spd(n, stream);
      const auto f = linalg::LdltFactor::factor(ctx, a);
      EXPECT_TRUE(f);
      std::vector<linalg::Vec> solutions;
      if (!f) return solutions;  // EXPECT above reports; avoid bad deref
      for (int trial = 0; trial < 3; ++trial) {
        solutions.push_back(f->solve(testsupport::gaussian_vector(n, stream)));
      }
      return solutions;
    });
  };
  const auto one = run(1);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const auto many = run(threads);
    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i)
      expect_bitwise_equal(one[i], many[i]);
  }
}

TEST(FactorDeterminism, ComponentFactorIsThreadCountInvariant) {
  // Three unevenly-sized components plus a singleton: the per-component
  // fan-out must not let scheduling order leak into the factors.
  const auto build = [] {
    rng::Stream gstream(17);
    graph::Graph g(91);
    const auto add_shifted = [&g](const graph::Graph& part,
                                  std::size_t offset) {
      for (std::size_t e = 0; e < part.num_edges(); ++e) {
        const auto& ed = part.edge(e);
        g.add_edge(ed.u + offset, ed.v + offset, ed.weight);
      }
    };
    add_shifted(graph::random_connected_gnp(40, 0.2, 8, gstream), 0);
    add_shifted(graph::random_connected_gnp(30, 0.3, 5, gstream), 40);
    add_shifted(graph::path(20), 70);  // vertex 90: singleton
    return g;
  };
  const auto run = [&](std::size_t threads) {
    return with_threads(threads, [&](const common::Context& ctx) {
      const auto g = build();
      const auto f =
          linalg::ComponentLaplacianFactor::factor(ctx, graph::laplacian(g));
      EXPECT_TRUE(f);
      if (!f) return linalg::Vec{};  // EXPECT above reports; avoid bad deref
      EXPECT_EQ(f->num_components(), 4u);
      rng::Stream rhs(5);
      return f->solve(ctx, testsupport::gaussian_vector(91, rhs));
    });
  };
  const auto one = run(1);
  for (const std::size_t threads : {2u, 4u}) {
    expect_bitwise_equal(one, run(threads));
  }
}

TEST(FactorDeterminism, PureOracleFastPathMatchesSequentialWalk) {
  // The same pure oracle driven through both phase-B strategies — the
  // pinned sequential node walk and the parallel fast path — must yield
  // identical spanner output. Run under 4 workers so the fast path
  // actually fans out.
  rng::Stream gstream(7);
  const auto g = graph::random_connected_gnp(32, 0.3, 6, gstream);
  const auto run = [&](bool pure) {
    return with_threads(4, [&](const common::Context& ctx) {
      auto net = testsupport::bc_net(ctx, g);
      rng::Stream marks(3);
      const std::uint64_t base = rng::derive_seed(99, "pure-oracle-test");
      const spanner::ExistenceOracle oracle = [base](graph::EdgeId e) {
        rng::Stream s(rng::derive_seed(base, e));
        return s.next_double() < 0.5;
      };
      spanner::ProbabilisticSpannerOptions opt;
      opt.k = 3;
      opt.pure_oracle = pure;
      return spanner::spanner_with_probabilistic_edges(g, opt, oracle, marks,
                                                       net);
    });
  };
  const auto seq = run(false);
  const auto fast = run(true);
  EXPECT_EQ(seq.f_plus, fast.f_plus);
  EXPECT_EQ(seq.f_minus, fast.f_minus);
  EXPECT_EQ(seq.out_vertex, fast.out_vertex);
  EXPECT_EQ(seq.rounds, fast.rounds);
  EXPECT_TRUE(seq.deduction_consistent);
  EXPECT_TRUE(fast.deduction_consistent);
  // The run must have decided something for the comparison to mean much.
  EXPECT_FALSE(seq.f_plus.empty());
}

TEST(FactorDeterminism, SparsifierFastPathIsThreadCountInvariant) {
  // End-to-end: the sparsifier enables the pure-oracle fast path
  // internally; edges, orientations, weights and rounds must be
  // byte-identical at odd and even worker counts alike.
  rng::Stream gstream(33);
  const auto g = graph::complete(26, 4, gstream);
  const auto run = [&](std::size_t threads) {
    return with_threads(threads, [&](const common::Context& ctx) {
      auto net = testsupport::bc_net(ctx, g);
      return sparsify::spectral_sparsify(ctx.with_seed(1234), g,
                                         testsupport::small_sparsify_options(),
                                         net);
    });
  };
  const auto one = run(1);
  for (const std::size_t threads : {3u, 5u}) {
    const auto many = run(threads);
    EXPECT_EQ(one.stats.rounds, many.stats.rounds);
    EXPECT_EQ(one.original_edge, many.original_edge);
    EXPECT_EQ(one.out_vertex, many.out_vertex);
    ASSERT_EQ(one.sparsifier.num_edges(), many.sparsifier.num_edges());
    for (std::size_t e = 0; e < one.sparsifier.num_edges(); ++e) {
      EXPECT_EQ(one.sparsifier.edge(e).u, many.sparsifier.edge(e).u);
      EXPECT_EQ(one.sparsifier.edge(e).v, many.sparsifier.edge(e).v);
      EXPECT_EQ(one.sparsifier.edge(e).weight, many.sparsifier.edge(e).weight);
    }
  }
}

}  // namespace
}  // namespace bcclap
