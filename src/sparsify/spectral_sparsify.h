// Spectral sparsification in the Broadcast CONGEST model (Section 3.2,
// Theorem 1.2), following Koutis-Xu with Kyng et al.'s fixed bundle size.
//
// Two variants are provided:
//  - spectral_sparsify        : Algorithm 5, the paper's contribution.
//    Edge sampling happens *ad hoc inside the spanner's Connect calls* and
//    is communicated implicitly; per-edge survival probabilities are
//    maintained as powers of 1/4.
//  - spectral_sparsify_apriori: Algorithm 4 (the Koutis-Xu/KPPS original),
//    which samples surviving edges up front each iteration. Not
//    implementable in Broadcast CONGEST; runs here as the correctness
//    reference.
//
// Coupling (Lemma 3.3): both variants draw the per-iteration survival coin
// of edge e from the same seed-derived stream, and cluster-marking bits
// from the same stream. Under a shared seed the two algorithms therefore
// produce *identical* output graphs — the constructive counterpart of the
// lemma's distributional equality, and a property test in the suite.
//
// Stopping rule: an outer iteration exists to shrink the maintained graph
// toward the bundle size. After iteration i < L each connected component
// of G stops if the bundle B_i holds every edge of E_{i-1} inside it; then
// the component's G_i = G_{i-1}, it keeps B_i with its current weights
// (still one bundle in size), and the sampling error of iterations
// i+1..L is never added to it. Components stop on their own because in
// Broadcast CONGEST a vertex hears only its own component. In the ad-hoc
// variant an edge of E_{i-1} is a maintained edge whose pending survival
// coins all pass; those coins are its owner's own randomness, so the
// owner raises a 1-bit flag, the flags are ORed up a BFS tree of the
// component rooted at its lowest-id vertex r, and the decision is
// broadcast back down: 2 ecc(r) rounds per check, plus ecc(r) rounds once
// to build the tree by a BFS wave from r. Components check in parallel,
// so a check costs its deepest still-running component's rounds, charged
// under "sparsify/fixpoint". The a-priori variant makes the same test on
// its sampled E_{i-1} (such an iteration flips no coin in the component)
// and stops each component at the same iteration. stats.iterations counts
// the iterations run (by the last component to stop), at most L =
// SparsifyOptions::iterations.
#pragma once

#include <cstdint>
#include <vector>

#include "bcc/network.h"
#include "common/context.h"
#include "core/stats.h"
#include "graph/graph.h"

namespace bcclap::sparsify {

struct SparsifyOptions {
  double epsilon = 0.5;
  // Stretch parameter k; 0 = ceil(log2 n) (paper default).
  std::size_t k = 0;
  // Spanners per bundle; 0 = t_constant * log^2(n) / eps^2 (paper form).
  std::size_t t = 0;
  // The paper's constant is 400, which is vacuous below n ~ 10^6 (the
  // "sparsifier" would be denser than G). Benches default to a small
  // constant and report it; the asymptotic form is unchanged.
  double t_constant = 1.0;
  // Cap L on the outer iterations; 0 = ceil(log2 m) (paper default). The
  // loop stops earlier at the bundle fixpoint.
  std::size_t iterations = 0;
  // Ablation A1: grow the bundle size linearly over iterations (Koutis-Xu
  // style) instead of keeping it fixed (Kyng et al.).
  bool growing_t = false;
};

struct SparsifyResult {
  graph::Graph sparsifier;  // reweighted subgraph on the same vertex set
  // For each sparsifier edge: the source edge id in the input graph.
  std::vector<graph::EdgeId> original_edge;
  // Orientation: out-vertex per sparsifier edge (Theorem 1.2's bounded
  // out-degree claim).
  std::vector<graph::VertexId> out_vertex;
  bool deduction_consistent = true;
  std::size_t resolved_t = 0;  // the t actually used
  std::size_t resolved_k = 0;
  // Unified shape: rounds = BC rounds of the run, iterations = outer
  // iterations run, at most the resolved L (core/stats.h).
  core::RunStats stats;
};

// Algorithm 5 on a Broadcast CONGEST network over g's topology. All
// randomness (survival coins, cluster marks) derives from ctx.seed(); all
// parallel phases run on ctx's pool (which should be the pool `net` was
// built with — both normally come from the same Runtime).
SparsifyResult spectral_sparsify(const common::Context& ctx,
                                 const graph::Graph& g,
                                 const SparsifyOptions& opt,
                                 bcc::Network& net);

// Algorithm 4 (a-priori sampling); centralized reference. Uses the same
// seed-derived coin and marking streams as spectral_sparsify.
SparsifyResult spectral_sparsify_apriori(const common::Context& ctx,
                                         const graph::Graph& g,
                                         const SparsifyOptions& opt);

// Resolves defaulted (0) option fields against a concrete graph.
SparsifyOptions resolve_options(const graph::Graph& g,
                                const SparsifyOptions& opt);

}  // namespace bcclap::sparsify
