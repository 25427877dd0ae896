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

// The connected components of g, which stop at their bundle fixpoints
// independently: in Broadcast CONGEST a vertex hears only its own
// component. depth[c] is the eccentricity of component c's lowest-id
// vertex r, the depth of a BFS tree of c rooted at r.
struct Components {
  std::vector<std::size_t> of_vertex;
  std::vector<std::int64_t> depth;
};

Components bfs_components(const graph::Graph& g) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t n = g.num_vertices();
  Components out;
  out.of_vertex.assign(n, kNone);
  std::vector<std::int64_t> level(n, 0);
  std::vector<graph::VertexId> queue;
  queue.reserve(n);
  for (graph::VertexId r = 0; r < n; ++r) {
    if (out.of_vertex[r] != kNone) continue;
    const std::size_t c = out.depth.size();
    out.of_vertex[r] = c;
    queue.assign(1, r);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const graph::VertexId v = queue[head];
      for (graph::EdgeId e : g.incident(v)) {
        const graph::VertexId u = g.other_endpoint(e, v);
        if (out.of_vertex[u] != kNone) continue;
        out.of_vertex[u] = c;
        level[u] = level[v] + 1;
        queue.push_back(u);
      }
    }
    out.depth.push_back(level[queue.back()]);
  }
  return out;
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

  // Whether maintained edge e passes its pending survival coins
  // j in (last_reset[e], upto]: at upto = i - 1 that is membership in
  // E_{i-1}.
  const auto survives_through = [&](graph::EdgeId e, std::size_t upto) {
    for (std::size_t j = last_reset[e] + 1; j <= upto; ++j) {
      if (!coins.survives(j, e)) return false;
    }
    return true;
  };

  // H's bundle part: each component's last bundle, in the order the
  // components stop.
  std::vector<graph::EdgeId> kept;
  std::vector<graph::VertexId> kept_out;
  const Components comps = bfs_components(g);
  const auto component_of = [&](graph::EdgeId e) {
    return comps.of_vertex[g.edge(e).u];
  };
  std::vector<std::uint8_t> active(comps.depth.size(), 1);
  std::vector<std::uint8_t> outside(m);
  std::size_t ran = 0;
  for (std::size_t i = 1; i <= L; ++i) {
    ran = i;
    const spanner::ExistenceOracle oracle = [&](graph::EdgeId e) {
      return survives_through(e, i - 1);
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
    if (i == L) {
      kept.insert(kept.end(), bundle.bundle_edges.begin(),
                  bundle.bundle_edges.end());
      kept_out.insert(kept_out.end(), bundle.out_vertex.begin(),
                      bundle.out_vertex.end());
      break;
    }

    // Fixpoint check, per component: a component whose bundle B_i holds
    // every edge of E_{i-1} has G_i = G_{i-1}, so it stops and keeps B_i.
    // The owner of a maintained edge outside B_i that passes its pending
    // coins (its own randomness) raises a 1-bit flag; the flags are ORed
    // up the component's BFS tree to its root and the decision is
    // broadcast back down, 2 * depth rounds. The first check also builds
    // the trees, one BFS wave of depth rounds. Components check in
    // parallel, so a check costs its deepest active component's rounds.
    std::int64_t depth = 0;
    for (std::size_t c = 0; c < active.size(); ++c) {
      if (active[c]) depth = std::max(depth, comps.depth[c]);
    }
    if (depth > 0) net.charge("sparsify/fixpoint", (i == 1 ? 3 : 2) * depth);
    ctx.parallel_for_chunks(0, m, 1024, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t e = lo; e < hi; ++e) {
        outside[e] = avail[e] && !in_bundle[e] && survives_through(e, i - 1);
      }
    });
    std::vector<std::uint8_t> goes_on(active.size(), 0);
    for (std::size_t e = 0; e < m; ++e) {
      if (outside[e]) goes_on[component_of(e)] = 1;
    }
    // A stopping component keeps its bundle edges with their current
    // weights; its other edges all failed a coin and leave with it.
    for (std::size_t j = 0; j < bundle.bundle_edges.size(); ++j) {
      const graph::EdgeId e = bundle.bundle_edges[j];
      if (goes_on[component_of(e)]) continue;
      kept.push_back(e);
      kept_out.push_back(bundle.out_vertex[j]);
    }
    for (std::size_t e = 0; e < m; ++e) {
      if (!goes_on[component_of(e)]) avail[e] = false;
    }
    active = goes_on;
    if (std::find(active.begin(), active.end(), 1) == active.end()) break;
  }

  // Final step: keep every component's last bundle and sample each other
  // maintained edge (only components that ran all L iterations have any)
  // with its current probability. The lower-id endpoint samples and
  // broadcasts additions (Algorithm 5 lines 12-15).
  graph::Graph h(g.num_vertices());
  std::vector<bool> in_h(m, false);
  for (std::size_t j = 0; j < kept.size(); ++j) {
    const graph::EdgeId e = kept[j];
    in_h[e] = true;
    const auto& ed = g.edge(e);
    h.add_edge(ed.u, ed.v, weight[e]);
    result.original_edge.push_back(e);
    result.out_vertex.push_back(kept_out[j]);
  }
  // The pending survival coins of every maintained edge are a pure function
  // of (seed, iteration, edge), so they evaluate in parallel; the graph and
  // result assembly below then walks edges in id order as before.
  std::vector<std::uint8_t> sampled(m, 0);
  ctx.parallel_for_chunks(0, m, 1024, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      if (!avail[e] || in_h[e]) continue;
      sampled[e] = survives_through(e, L) ? 1 : 0;
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
  result.resolved_t = opt.t;
  result.resolved_k = opt.k;
  result.stats.rounds = net.accountant().since(start);
  result.stats.iterations = ran;
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
  std::vector<graph::EdgeId> kept;
  std::vector<graph::VertexId> kept_out;
  const Components comps = bfs_components(g);
  const auto component_of = [&](graph::EdgeId e) {
    return comps.of_vertex[g.edge(e).u];
  };

  const spanner::ExistenceOracle always = [](graph::EdgeId) { return true; };
  std::size_t ran = 0;
  for (std::size_t i = 1; i <= L; ++i) {
    ran = i;
    const auto bundle = spanner::bundle_spanner(
        g, exists, weight, opt.k, bundle_size_at(opt, opt.t, i), always,
        mark_stream, scratch, /*pure_oracle=*/true);
    result.deduction_consistent &= bundle.deduction_consistent;
    assert(bundle.deleted_edges.empty());  // p == 1 never rejects
    std::vector<bool> in_bundle(m, false);
    for (graph::EdgeId e : bundle.bundle_edges) in_bundle[e] = true;
    std::vector<std::uint8_t> goes_on(comps.depth.size(), 0);
    for (std::size_t e = 0; e < m; ++e) {
      if (!exists[e] || in_bundle[e]) continue;
      goes_on[component_of(e)] = 1;
      if (coins.survives(i, e)) {
        weight[e] *= 4.0;
      } else {
        exists[e] = false;
      }
    }
    // The ad-hoc variant's per-component fixpoint: a component whose B_i
    // holds all of its E_{i-1} flipped no coin above (G_i = G_{i-1}); it
    // stops and keeps B_i. At i = L every component keeps its B_i.
    for (std::size_t j = 0; j < bundle.bundle_edges.size(); ++j) {
      const graph::EdgeId e = bundle.bundle_edges[j];
      if (i < L && goes_on[component_of(e)]) continue;
      kept.push_back(e);
      kept_out.push_back(bundle.out_vertex[j]);
    }
    if (i == L) break;
    for (std::size_t e = 0; e < m; ++e) {
      if (!goes_on[component_of(e)]) exists[e] = false;
    }
    if (std::find(goes_on.begin(), goes_on.end(), 1) == goes_on.end()) break;
  }

  graph::Graph h(g.num_vertices());
  std::vector<bool> in_h(m, false);
  for (std::size_t j = 0; j < kept.size(); ++j) {
    const graph::EdgeId e = kept[j];
    in_h[e] = true;
    const auto& ed = g.edge(e);
    h.add_edge(ed.u, ed.v, weight[e]);
    result.original_edge.push_back(e);
    result.out_vertex.push_back(kept_out[j]);
  }
  for (std::size_t e = 0; e < m; ++e) {
    if (!exists[e] || in_h[e]) continue;
    const auto& ed = g.edge(e);
    h.add_edge(ed.u, ed.v, weight[e]);
    result.original_edge.push_back(e);
    result.out_vertex.push_back(ed.u);
  }
  result.sparsifier = std::move(h);
  result.resolved_t = opt.t;
  result.resolved_k = opt.k;
  result.stats.iterations = ran;
  return result;
}

}  // namespace bcclap::sparsify
