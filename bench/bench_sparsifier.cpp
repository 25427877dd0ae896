// E3 + E4 (Theorem 1.2): sparsifier size vs n * eps^-2 * log^4 n, spectral
// quality, out-degree of the orientation, and BC round complexity.
// Runs on the shared harness; counters are thread-count-invariant.
#include "support/harness.h"

#include <algorithm>
#include <cmath>
#include <string>

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
  return h.run(argc, argv);
}
