// E3 + E4 (Theorem 1.2): sparsifier size vs n * eps^-2 * log^4 n, spectral
// quality, out-degree of the orientation, BC round complexity, and where
// the outer loop stops at its bundle fixpoint.
// Runs on the shared harness; counters are thread-count-invariant.
#include "support/harness.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "spanner/cluster.h"
#include "sparsify/spectral_sparsify.h"
#include "sparsify/verifier.h"

namespace {

using namespace bcclap;

void sparsifier_size(bench::State& s, std::size_t n, std::size_t t) {
  rng::Stream gstream(n);
  const auto g = graph::complete(n, 4, gstream);
  bcc::Network net(bcc::Model::kBroadcastCongest, g,
                   bcc::Network::default_bandwidth(n),
                   bench::bench_context());
  sparsify::SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.k = 2;
  opt.t = t;
  const auto res = sparsify::spectral_sparsify(
      net.context().with_seed(s.iteration() + 1), g, opt, net);
  const auto deg = spanner::out_degrees(n, res.out_vertex);
  std::size_t mx = 0;
  for (auto d : deg) mx = std::max(mx, d);

  const double logn = std::log2(static_cast<double>(n));
  const double size = static_cast<double>(res.sparsifier.num_edges());
  s.counter("n", static_cast<double>(n));
  s.counter("m", static_cast<double>(g.num_edges()));
  s.counter("size", size);
  s.counter("size_per_nlog", size / (static_cast<double>(n) * logn));
  s.counter("rounds", static_cast<double>(res.stats.rounds));
  s.counter("max_outdeg", static_cast<double>(mx));
}

void sparsifier_quality(bench::State& s, std::size_t n, std::size_t t) {
  rng::Stream gstream(n * 13);
  const auto g = graph::complete(n, 2, gstream);
  bcc::Network net(bcc::Model::kBroadcastCongest, g,
                   bcc::Network::default_bandwidth(n),
                   bench::bench_context());
  sparsify::SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.k = 2;
  opt.t = t;
  const auto res = sparsify::spectral_sparsify(
      net.context().with_seed(s.iteration() + 7), g, opt, net);
  const auto check = sparsify::check_sparsifier(g, res.sparsifier);
  s.counter("n", static_cast<double>(n));
  s.counter("t", static_cast<double>(t));
  s.counter("achieved_eps", check.valid ? check.achieved_epsilon() : 99.0);
  s.counter("lambda_min", check.valid ? check.lambda_min : 0.0);
}

// The stopping regime (k = 2, t = 4, eps = 0.5): where the loop stops
// relative to its cap L = ceil(log2 m), and how much of G survives. At this
// t one bundle holds a bounded-degree graph or G(64, 1/2), so the loop
// stops after one iteration and keeps every edge; denser graphs stop later
// or run to L and shed edges. One fixed seed, so the counters do not
// depend on the repetition count.
enum class Family { kComplete, kGnpHalf, kRegularish8 };

void sparsifier_fixpoint(bench::State& s, Family family, std::size_t n) {
  rng::Stream gstream(n);
  const graph::Graph g =
      family == Family::kComplete  ? graph::complete(n, 4, gstream)
      : family == Family::kGnpHalf ? graph::random_connected_gnp(n, 0.5, 4,
                                                                 gstream)
                                   : graph::random_regularish(n, 8, 4, gstream);
  bcc::Network net(bcc::Model::kBroadcastCongest, g,
                   bcc::Network::default_bandwidth(n),
                   bench::bench_context());
  sparsify::SparsifyOptions opt;
  opt.epsilon = 0.5;
  opt.k = 2;
  opt.t = 4;
  const auto res =
      sparsify::spectral_sparsify(net.context().with_seed(1), g, opt, net);
  s.counter("n", static_cast<double>(n));
  s.counter("m", static_cast<double>(g.num_edges()));
  s.counter("iterations_run", static_cast<double>(res.stats.iterations));
  s.counter("iterations_cap",
            static_cast<double>(sparsify::resolve_options(g, opt).iterations));
  s.counter("kept_edge_ratio",
            static_cast<double>(res.sparsifier.num_edges()) /
                static_cast<double>(g.num_edges()));
  s.counter("rounds", static_cast<double>(res.stats.rounds));
  s.counter("fixpoint_rounds", static_cast<double>(net.accountant().total_for(
                                   "sparsify/fixpoint")));
}

std::string case_name(const char* base, std::size_t n, std::size_t t) {
  return std::string(base) + "/n=" + std::to_string(n) +
         "/t=" + std::to_string(t);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_sparsifier");
  for (const std::size_t n : {24u, 32u, 48u, 64u, 96u}) {
    for (const std::size_t t : {1u, 2u, 4u}) {
      h.add(case_name("sparsifier_size", n, t),
            [n, t](bench::State& s) { sparsifier_size(s, n, t); });
    }
  }
  for (const std::size_t n : {24u, 36u, 48u}) {
    for (const std::size_t t : {1u, 2u, 4u, 8u}) {
      h.add(case_name("sparsifier_quality", n, t),
            [n, t](bench::State& s) { sparsifier_quality(s, n, t); });
    }
  }
  const std::pair<const char*, Family> families[] = {
      {"complete", Family::kComplete},
      {"gnp_half", Family::kGnpHalf},
      {"regularish8", Family::kRegularish8}};
  for (const auto& [name, family] : families) {
    for (const std::size_t n : {64u, 256u, 1024u}) {
      // A dense n = 1024 run takes seconds; only the bounded-degree family
      // goes that far.
      if (n == 1024 && family != Family::kRegularish8) continue;
      h.add("sparsifier_fixpoint/" + std::string(name) +
                "/n=" + std::to_string(n),
            [family, n](bench::State& s) { sparsifier_fixpoint(s, family, n); });
    }
  }
  return h.run(argc, argv);
}
