#include "sparsify/spectral_sparsify.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/context.h"
#include "common/rng.h"
#include "spanner/bundle.h"

namespace bcclap::sparsify {

namespace {

// Survival coin of edge e at outer iteration j (1-based): a pure function
// of (seed, j, e). Both algorithm variants consult the same coins, which is
// what makes the Lemma 3.3 coupling exact.
class CoinSource {
 public:
  CoinSource(std::uint64_t seed, std::size_t m)
      : base_(rng::derive_seed(seed, "survival-coins")), m_(m) {}

  bool survives(std::size_t iteration, graph::EdgeId e) const {
    rng::Stream s(rng::derive_seed(base_, iteration * m_ + e));
    return s.next_double() < 0.25;
  }

 private:
  std::uint64_t base_;
  std::size_t m_;
};

std::size_t resolved_iterations(const graph::Graph& g,
                                const SparsifyOptions& opt) {
  if (opt.iterations != 0) return opt.iterations;
  const double m = static_cast<double>(std::max<std::size_t>(g.num_edges(), 2));
  return static_cast<std::size_t>(std::ceil(std::log2(m)));
}

std::size_t bundle_size_at(const SparsifyOptions& opt, std::size_t t_base,
                           std::size_t iteration) {
  return opt.growing_t ? t_base * iteration : t_base;
}

}  // namespace

SparsifyOptions resolve_options(const graph::Graph& g,
                                const SparsifyOptions& opt) {
  SparsifyOptions out = opt;
  const double n =
      static_cast<double>(std::max<std::size_t>(g.num_vertices(), 2));
  if (out.k == 0)
    out.k = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::ceil(std::log2(n))));
  if (out.t == 0) {
    const double logn = std::log2(n);
    out.t = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               out.t_constant * logn * logn / (out.epsilon * out.epsilon))));
  }
  if (out.iterations == 0) out.iterations = resolved_iterations(g, opt);
  return out;
}

SparsifyResult spectral_sparsify(const common::Context& ctx,
                                 const graph::Graph& g,
                                 const SparsifyOptions& opt_in,
                                 bcc::Network& net) {
  const SparsifyOptions opt = resolve_options(g, opt_in);
  const std::size_t m = g.num_edges();
  const std::size_t L = opt.iterations;
  const CoinSource coins(ctx.seed(), m);
  rng::Stream mark_stream = ctx.stream("cluster-marks");

  std::vector<bool> avail(m, true);
  std::vector<double> weight(m);
  for (std::size_t e = 0; e < m; ++e) weight[e] = g.edge(e).weight;
  // last_reset[e]: last iteration at whose end p(e) was reset to 1 (bundle
  // membership), 0 initially. The maintained probability at iteration i is
  // 4^-(i-1-last_reset), realized by checking the pending survival coins.
  std::vector<std::size_t> last_reset(m, 0);

  SparsifyResult result;
  const std::int64_t start = net.accountant().mark();

  std::vector<graph::EdgeId> last_bundle;
  std::vector<graph::VertexId> last_bundle_out;
  for (std::size_t i = 1; i <= L; ++i) {
    const spanner::ExistenceOracle oracle = [&](graph::EdgeId e) {
      for (std::size_t j = last_reset[e] + 1; j < i; ++j) {
        if (!coins.survives(j, e)) return false;
      }
      return true;
    };
    // The survival coins are a pure function of (seed, iteration, edge)
    // and last_reset_ only changes between bundle calls, so the oracle is
    // pure for the duration of each bundle: the spanner's sampling phase
    // may fan out across the pool (the general stateful-oracle contract
    // would pin it to the sequential node walk).
    const auto bundle = spanner::bundle_spanner(
        g, avail, weight, opt.k, bundle_size_at(opt, opt.t, i), oracle,
        mark_stream, net, /*pure_oracle=*/true);
    result.deduction_consistent &= bundle.deduction_consistent;
    for (graph::EdgeId e : bundle.deleted_edges) avail[e] = false;
    std::vector<bool> in_bundle(m, false);
    for (graph::EdgeId e : bundle.bundle_edges) in_bundle[e] = true;
    // Per-edge probability bookkeeping: every slot is written by exactly
    // one index, so the loop fans out across the pool deterministically.
    ctx.parallel_for_chunks(0, m, 4096, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t e = lo; e < hi; ++e) {
        if (!avail[e]) continue;
        if (in_bundle[e]) {
          last_reset[e] = i;  // p(e) <- 1
        } else {
          weight[e] *= 4.0;   // p(e) <- p(e)/4 (tracked via last_reset)
        }
      }
    });
    last_bundle = bundle.bundle_edges;
    last_bundle_out = bundle.out_vertex;
  }

  // Final step: keep the last bundle, sample each other maintained edge
  // with its current probability. The lower-id endpoint samples and
  // broadcasts additions (Algorithm 5 lines 12-15).
  graph::Graph h(g.num_vertices());
  std::vector<bool> in_last_bundle(m, false);
  for (std::size_t j = 0; j < last_bundle.size(); ++j) {
    const graph::EdgeId e = last_bundle[j];
    in_last_bundle[e] = true;
    const auto& ed = g.edge(e);
    h.add_edge(ed.u, ed.v, weight[e]);
    result.original_edge.push_back(e);
    result.out_vertex.push_back(last_bundle_out[j]);
  }
  // The pending survival coins of every maintained edge are a pure function
  // of (seed, iteration, edge), so they evaluate in parallel; the graph and
  // result assembly below then walks edges in id order as before.
  std::vector<std::uint8_t> sampled(m, 0);
  ctx.parallel_for_chunks(0, m, 1024, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      if (!avail[e] || in_last_bundle[e]) continue;
      bool exists = true;
      for (std::size_t j = last_reset[e] + 1; j <= L; ++j) {
        if (!coins.survives(j, e)) {
          exists = false;
          break;
        }
      }
      sampled[e] = exists ? 1 : 0;
    }
  });
  // The lower-id endpoint announces each sampled edge (Algorithm 5 lines
  // 12-15); its outbox lists them in edge-id order.
  std::vector<std::vector<bcc::Message>> additions(g.num_vertices());
  for (std::size_t e = 0; e < m; ++e) {
    if (!sampled[e]) continue;
    const auto& ed = g.edge(e);
    h.add_edge(ed.u, ed.v, weight[e]);
    result.original_edge.push_back(e);
    result.out_vertex.push_back(ed.u);  // oriented towards the higher id
    additions[ed.u].push_back(bcc::Message().push_id(ed.v, g.num_vertices()));
  }
  net.exchange(additions, "sparsify/final-sample");

  result.sparsifier = std::move(h);
  result.rounds = net.accountant().since(start);
  result.resolved_t = opt.t;
  result.resolved_k = opt.k;
  result.stats.rounds = result.rounds;
  result.stats.iterations = L;
  return result;
}

SparsifyResult spectral_sparsify_apriori(const common::Context& ctx,
                                         const graph::Graph& g,
                                         const SparsifyOptions& opt_in) {
  const SparsifyOptions opt = resolve_options(g, opt_in);
  const std::size_t m = g.num_edges();
  const std::size_t L = opt.iterations;
  const CoinSource coins(ctx.seed(), m);
  rng::Stream mark_stream = ctx.stream("cluster-marks");
  // Scratch network: the a-priori variant is the centralized reference;
  // its rounds are not meaningful (it is not BC-implementable).
  bcc::Network scratch(bcc::Model::kBroadcastCongest, g,
                       bcc::Network::default_bandwidth(g.num_vertices()),
                       ctx);

  std::vector<bool> exists(m, true);  // E_i, sampled a priori
  std::vector<double> weight(m);
  for (std::size_t e = 0; e < m; ++e) weight[e] = g.edge(e).weight;

  SparsifyResult result;
  std::vector<graph::EdgeId> last_bundle;
  std::vector<graph::VertexId> last_bundle_out;
  std::vector<graph::EdgeId> final_sampled;

  const spanner::ExistenceOracle always = [](graph::EdgeId) { return true; };
  for (std::size_t i = 1; i <= L; ++i) {
    const auto bundle = spanner::bundle_spanner(
        g, exists, weight, opt.k, bundle_size_at(opt, opt.t, i), always,
        mark_stream, scratch, /*pure_oracle=*/true);
    result.deduction_consistent &= bundle.deduction_consistent;
    assert(bundle.deleted_edges.empty());  // p == 1 never rejects
    std::vector<bool> in_bundle(m, false);
    for (graph::EdgeId e : bundle.bundle_edges) in_bundle[e] = true;
    for (std::size_t e = 0; e < m; ++e) {
      if (!exists[e] || in_bundle[e]) continue;
      if (coins.survives(i, e)) {
        weight[e] *= 4.0;
      } else {
        exists[e] = false;
      }
    }
    last_bundle = bundle.bundle_edges;
    last_bundle_out = bundle.out_vertex;
  }

  graph::Graph h(g.num_vertices());
  std::vector<bool> in_last_bundle(m, false);
  for (std::size_t j = 0; j < last_bundle.size(); ++j) {
    const graph::EdgeId e = last_bundle[j];
    in_last_bundle[e] = true;
    const auto& ed = g.edge(e);
    h.add_edge(ed.u, ed.v, weight[e]);
    result.original_edge.push_back(e);
    result.out_vertex.push_back(last_bundle_out[j]);
  }
  for (std::size_t e = 0; e < m; ++e) {
    if (!exists[e] || in_last_bundle[e]) continue;
    const auto& ed = g.edge(e);
    h.add_edge(ed.u, ed.v, weight[e]);
    result.original_edge.push_back(e);
    result.out_vertex.push_back(ed.u);
  }
  result.sparsifier = std::move(h);
  result.rounds = 0;
  result.resolved_t = opt.t;
  result.resolved_k = opt.k;
  result.stats.iterations = L;
  return result;
}

}  // namespace bcclap::sparsify
