// The Connect procedure (Algorithm 2).
//
// Given the candidate neighbours of a vertex inside one target cluster,
// sorted ascending by (edge weight, neighbour id), Connect walks the list
// sampling each edge's existence; the first accepted edge is returned and
// every edge rejected before it is reported deleted. Candidates after the
// accepted one are left untouched (they stay probabilistic).
//
// Edge existence is sampled through a callback so the caller controls the
// coupling: the standalone spanner uses a fresh Bernoulli(p_e) draw, while
// the sparsifier uses per-iteration survival coins, which makes the ad-hoc
// algorithm *bitwise* equal to the a-priori one under a shared seed — the
// constructive form of Lemma 3.3.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.h"

namespace bcclap::spanner {

struct Candidate {
  graph::VertexId u;
  graph::EdgeId e;
  double weight;
};

struct ConnectResult {
  std::optional<Candidate> accepted;
  std::vector<Candidate> rejected;  // the N^- set
};

// The (weight, id) candidate order used throughout Section 3.1; exposed for
// the deduction rules, which must replay the same comparisons.
inline bool candidate_less(const Candidate& a, const Candidate& b) {
  if (a.weight != b.weight) return a.weight < b.weight;
  return a.u < b.u;
}

// Connect over the candidates [first, last), in place: sorts the range into
// candidate order, then samples until `exists` accepts. Returns the number
// r of rejected candidates; they are the first r entries of the sorted
// range (the N^- set, in order), and entry r, if it exists, is the accepted
// candidate. `exists` is invoked at most once per candidate, in sorted
// order, until one returns true. It must encapsulate the "already decided
// to exist" case by returning true deterministically.
template <typename Exists>
std::size_t connect_in_place(Candidate* first, Candidate* last,
                             Exists&& exists) {
  std::sort(first, last, [](const Candidate& a, const Candidate& b) {
    return candidate_less(a, b);
  });
  std::size_t rejected = 0;
  for (const Candidate* c = first; c != last && !exists(c->e); ++c) {
    ++rejected;
  }
  return rejected;
}

// connect_in_place over an owned copy, with the outcome unpacked.
ConnectResult connect(std::vector<Candidate> candidates,
                      const std::function<bool(graph::EdgeId)>& exists);

}  // namespace bcclap::spanner
