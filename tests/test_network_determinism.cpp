// Determinism of the thread-parallel superstep engine: a run with one
// worker and a run with many workers must produce byte-identical message
// traffic, equal round accounting, and identical downstream results —
// including under stateful (sequential-RNG) existence oracles, whose call
// order the engine pins in the sequential sampling phase.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bcc/network.h"
#include "core/runtime.h"
#include "graph/generators.h"
#include "lp/leverage_scores.h"
#include "spanner/probabilistic_spanner.h"
#include "sparsify/spectral_sparsify.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

using bcc::Inboxes;
using bcc::Message;

// Runs fn with a context drawn from a dedicated `threads`-worker Runtime.
// The pool dies with the Runtime, so suite order does not matter.
template <typename Fn>
auto with_threads(std::size_t threads, Fn&& fn) {
  RuntimeOptions opts;
  opts.threads = threads;
  Runtime rt(opts);
  return fn(rt.context());
}

bool same_message(const Message& a, const Message& b) {
  if (a.num_fields() != b.num_fields() || a.total_bits() != b.total_bits())
    return false;
  for (std::size_t i = 0; i < a.num_fields(); ++i) {
    if (a.field(i) != b.field(i)) return false;
  }
  return true;
}

::testing::AssertionResult same_inboxes(const Inboxes& a, const Inboxes& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "node count differs";
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto from_a = a.from(v);
    const auto from_b = b.from(v);
    auto ia = from_a.begin();
    auto ib = from_b.begin();
    std::size_t slot = 0;
    for (; ia != from_a.end() && ib != from_b.end(); ++ia, ++ib) {
      const Inboxes::FromSender sa = *ia;
      const Inboxes::FromSender sb = *ib;
      if (sa.sender != sb.sender)
        return ::testing::AssertionFailure()
               << "sender order differs at node " << v << " slot " << slot;
      if (sa.edge != sb.edge)
        return ::testing::AssertionFailure()
               << "delivery edge differs at node " << v << " slot " << slot;
      if (sa.messages.size() != sb.messages.size())
        return ::testing::AssertionFailure()
               << "message count differs at node " << v << " slot " << slot;
      for (std::size_t i = 0; i < sa.messages.size(); ++i) {
        if (!same_message(sa.messages[i], sb.messages[i]))
          return ::testing::AssertionFailure()
                 << "message bytes differ at node " << v << " slot " << slot;
      }
      ++slot;
    }
    if (ia != from_a.end() || ib != from_b.end())
      return ::testing::AssertionFailure()
             << "inbox size differs at node " << v;
  }
  return ::testing::AssertionSuccess();
}

// Deterministic mixed-size outboxes: node v broadcasts v % 3 messages.
std::vector<std::vector<Message>> make_outboxes(std::size_t n) {
  std::vector<std::vector<Message>> out(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t j = 0; j < v % 3; ++j) {
      Message m;
      m.push_flag(j % 2 == 0).push_id(v, n).push(v * 31 + j, 13);
      out[v].push_back(m);
    }
  }
  return out;
}

struct ExchangeRun {
  Inboxes inboxes;
  std::int64_t total;
  std::map<std::string, std::int64_t> breakdown;
};

TEST(NetworkDeterminism, BccExchangeIsThreadCountInvariant) {
  const std::size_t n = 37;
  const auto run = [&](std::size_t threads) {
    return with_threads(threads, [&](const common::Context& ctx) {
      auto net = testsupport::bcc_net(ctx, n);
      ExchangeRun r;
      r.inboxes = net.exchange(make_outboxes(n), "step");
      r.total = net.accountant().total();
      r.breakdown = net.accountant().breakdown();
      return r;
    });
  };
  const ExchangeRun one = run(1);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const ExchangeRun many = run(threads);
    EXPECT_TRUE(same_inboxes(one.inboxes, many.inboxes)) << threads;
    EXPECT_EQ(one.total, many.total);
    EXPECT_EQ(one.breakdown, many.breakdown);
  }
}

TEST(NetworkDeterminism, BcExchangeIsThreadCountInvariant) {
  rng::Stream gstream(77);
  const auto g = graph::random_connected_gnp(41, 0.2, 6, gstream);
  const auto run = [&](std::size_t threads) {
    return with_threads(threads, [&](const common::Context& ctx) {
      auto net = testsupport::bc_net(ctx, g);
      ExchangeRun r;
      r.inboxes = net.exchange(make_outboxes(g.num_vertices()), "step");
      r.total = net.accountant().total();
      r.breakdown = net.accountant().breakdown();
      return r;
    });
  };
  const ExchangeRun one = run(1);
  const ExchangeRun many = run(4);
  EXPECT_TRUE(same_inboxes(one.inboxes, many.inboxes));
  EXPECT_EQ(one.total, many.total);
  EXPECT_EQ(one.breakdown, many.breakdown);
}

TEST(NetworkDeterminism, RunSuperstepMatchesManualExchange) {
  const std::size_t n = 25;
  const auto outboxes = make_outboxes(n);
  auto net_a = testsupport::bcc_net(n);
  const auto manual = net_a.exchange(outboxes, "step");
  const auto driven = with_threads(4, [&](const common::Context& ctx) {
    auto net_b = testsupport::bcc_net(ctx, n);
    return net_b.run_superstep(
        [&](std::size_t v) { return outboxes[v]; }, "step");
  });
  EXPECT_TRUE(same_inboxes(manual, driven));
}

TEST(NetworkDeterminism, SpannerWithStatefulOracleIsThreadCountInvariant) {
  rng::Stream gstream(5);
  const auto g = graph::random_connected_gnp(30, 0.3, 5, gstream);
  struct Run {
    spanner::ProbabilisticSpannerResult res;
    std::int64_t total;
  };
  const auto run = [&](std::size_t threads) {
    return with_threads(threads, [&](const common::Context& ctx) {
      auto net = testsupport::bc_net(ctx, g);
      rng::Stream marks(11);
      rng::Stream edges(13);
      spanner::ProbabilisticSpannerOptions opt;
      opt.k = 3;
      // Stateful oracle: draws from a sequential stream, so any change in
      // call order across thread counts would change the outcome.
      const spanner::ExistenceOracle oracle = [&](graph::EdgeId) {
        return edges.bernoulli(0.5);
      };
      Run r{spanner::spanner_with_probabilistic_edges(g, opt, oracle, marks,
                                                      net),
            net.accountant().total()};
      return r;
    });
  };
  const Run one = run(1);
  const Run many = run(4);
  EXPECT_EQ(one.res.f_plus, many.res.f_plus);
  EXPECT_EQ(one.res.f_minus, many.res.f_minus);
  EXPECT_EQ(one.res.out_vertex, many.res.out_vertex);
  EXPECT_EQ(one.res.rounds, many.res.rounds);
  EXPECT_EQ(one.total, many.total);
  EXPECT_TRUE(one.res.deduction_consistent);
  EXPECT_TRUE(many.res.deduction_consistent);
}

TEST(NetworkDeterminism, SparsifierIsThreadCountInvariant) {
  rng::Stream gstream(21);
  const auto g = graph::complete(24, 4, gstream);
  const auto run = [&](std::size_t threads) {
    return with_threads(threads, [&](const common::Context& ctx) {
      auto net = testsupport::bc_net(ctx, g);
      return sparsify::spectral_sparsify(ctx.with_seed(99), g,
                                         testsupport::small_sparsify_options(),
                                         net);
    });
  };
  const auto one = run(1);
  const auto many = run(4);
  EXPECT_EQ(one.stats.rounds, many.stats.rounds);
  EXPECT_EQ(one.original_edge, many.original_edge);
  EXPECT_EQ(one.out_vertex, many.out_vertex);
  ASSERT_EQ(one.sparsifier.num_edges(), many.sparsifier.num_edges());
  for (std::size_t e = 0; e < one.sparsifier.num_edges(); ++e) {
    EXPECT_EQ(one.sparsifier.edge(e).u, many.sparsifier.edge(e).u);
    EXPECT_EQ(one.sparsifier.edge(e).v, many.sparsifier.edge(e).v);
    // Byte-identical reweighting, not just approximately equal.
    EXPECT_EQ(one.sparsifier.edge(e).weight, many.sparsifier.edge(e).weight);
  }
}

TEST(NetworkDeterminism, LeverageScoresAreThreadCountInvariant) {
  rng::Stream mstream(31);
  const auto m = testsupport::gaussian_matrix(40, 6, mstream);
  const auto run = [&](std::size_t threads) {
    return with_threads(threads, [&](const common::Context& ctx) {
      lp::LeverageOptions opt;
      opt.seed = 7;
      bcc::RoundAccountant acct;
      const auto jl =
          lp::leverage_scores_jl(ctx, lp::dense_oracle(ctx, m), opt, &acct);
      const auto exact = lp::leverage_scores_exact(ctx, m);
      return std::make_pair(jl, exact);
    });
  };
  const auto one = run(1);
  const auto many = run(4);
  ASSERT_EQ(one.first.size(), many.first.size());
  for (std::size_t i = 0; i < one.first.size(); ++i) {
    EXPECT_EQ(one.first[i], many.first[i]);   // bitwise, not approximate
    EXPECT_EQ(one.second[i], many.second[i]);
  }
}

}  // namespace
}  // namespace bcclap
