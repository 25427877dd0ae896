// Spanner computation on a graph with probabilistic edges (Section 3.1).
//
// Input: a graph whose edges exist only with probability p_e (maintained by
// the sparsifier), a stretch parameter k. The algorithm decides edge
// existence lazily inside Connect and communicates each decision
// *implicitly*: a vertex broadcasts only which edge it connected with, and
// every neighbour deduces from that broadcast (plus the shared candidate
// order) whether its own edge was sampled away. The run returns
//   F+ : edges decided to exist (they form the spanner),
//   F- : edges decided not to exist,
// and S = (V, F+) is a (2k-1)-spanner of (V, F+ u E'') for any E'' subset
// of the still-undecided edges (Lemma 3.1).
//
// The implementation runs as a bulk-synchronous program on a Broadcast
// CONGEST network and *replays the paper's deduction rules at every
// receiving vertex*; `deduction_consistent` reports whether every deduced
// edge state matched the decider's, i.e. it machine-checks the paper's
// implicit-communication claim on every run.
//
// Execution context: every parallel phase dispatches through
// `net.context()` — the Runtime the network was built under — never a
// process-global pool.
//
// `net` must be a Broadcast CONGEST network over g's topology: receivers
// identify the edge a message arrived on from the network's inbox view, not
// by searching g (std::invalid_argument for a clique network or a node
// count other than g's).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bcc/network.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace bcclap::spanner {

enum class EdgeDecision : std::uint8_t { kUndecided, kExists, kDeleted };

// Existence oracle: called exactly once per undecided edge, when Connect
// first samples it. The sparsifier supplies survival-coin sampling here
// (which realizes the Lemma 3.3 coupling); standalone callers supply a
// plain Bernoulli(p_e).
using ExistenceOracle = std::function<bool(graph::EdgeId)>;

struct ProbabilisticSpannerOptions {
  std::size_t k = 2;
  // Edges eligible for this run (empty = all). Ineligible edges are
  // invisible to the algorithm.
  std::vector<bool> available;
  // Current (possibly rescaled) weights; empty = graph weights. Integer
  // weights travel in ceil(log2 W) bits; any other finite weight travels
  // exactly, as a 64-bit field.
  std::vector<double> weights;
  // Declares the existence oracle a pure function of the edge id (no
  // internal state advanced per call — the sparsifier's survival coins
  // are the canonical case). The sampling phase then fans out across the
  // worker pool instead of walking nodes sequentially; the result is
  // identical to the sequential walk because within one superstep every
  // edge has a unique decider. Leave false for stateful oracles
  // (sequential RNG streams), whose call order the engine must pin.
  bool pure_oracle = false;
};

struct ProbabilisticSpannerResult {
  std::vector<graph::EdgeId> f_plus;
  std::vector<graph::EdgeId> f_minus;
  // out_vertex[i] is the endpoint that added f_plus[i]; this is the
  // orientation of Lemma 3.1 (bounded out-degree).
  std::vector<graph::VertexId> out_vertex;
  // True iff every neighbour's deduced edge state matched the actual
  // decision at the end of the run (the Section 3.1 claim).
  bool deduction_consistent = true;
  // Rounds charged on the network by this run.
  std::int64_t rounds = 0;
};

// Runs the Section 3.1 spanner repeatedly over one graph, weight vector,
// oracle and network, keeping every per-node and per-edge buffer between
// runs: a t-bundle (Algorithm 3) allocates its scratch once, not t times.
// The object keeps references to g, `weights` (empty = graph weights),
// the oracle, the marking stream and the network; all must outlive it.
class ProbabilisticSpanner {
 public:
  ProbabilisticSpanner(const graph::Graph& g, std::size_t k,
                       const std::vector<double>& weights,
                       const ExistenceOracle& oracle, rng::Stream& mark_stream,
                       bcc::Network& net, bool pure_oracle);
  ~ProbabilisticSpanner();
  ProbabilisticSpanner(const ProbabilisticSpanner&) = delete;
  ProbabilisticSpanner& operator=(const ProbabilisticSpanner&) = delete;

  // One spanner over the edges e with available[e] (empty = all edges).
  // Throws std::invalid_argument if an available edge's weight is not
  // finite.
  ProbabilisticSpannerResult run(const std::vector<bool>& available);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

// One run of ProbabilisticSpanner with the options' k, weights,
// availability and oracle purity.
ProbabilisticSpannerResult spanner_with_probabilistic_edges(
    const graph::Graph& g, const ProbabilisticSpannerOptions& opt,
    const ExistenceOracle& oracle, rng::Stream& mark_stream,
    bcc::Network& net);

}  // namespace bcclap::spanner
