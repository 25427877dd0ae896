// Canonical graph fingerprint: the cache identity of a weighted graph.
//
// The factorization cache (core/factor_cache.h) retains prepared solver
// artifacts across requests; its key must identify "the same network"
// independently of how the caller happened to build it. fingerprint(g)
// hashes the vertex count, the edge count and the multiset of
// (min endpoint, max endpoint, weight bit pattern) triples, so
//
//  - two graphs whose edges were added in different orders, or with
//    endpoints written in either orientation, hash equal;
//  - perturbing any weight by one ulp, moving a weight to another edge,
//    flipping an edge to a different endpoint pair, changing an edge's
//    multiplicity or changing the number of (even isolated) vertices all
//    change the fingerprint (tests/test_fingerprint.cpp).
//
// The digest is a two-lane additive multiset hash: in each of two
// independently seeded 64-bit lanes every edge triple gets a splitmix
// digest, the digests are summed mod 2^64 (a sum, not XOR, so a repeated
// parallel edge still counts), and the lane is finalized by mixing n, m
// and the sum. The trade for O(m) with no sort: a sum of per-element
// hashes is not collision resistant against an adversary who picks edge
// sets to cancel (generalized-birthday attacks), but with 128 bits of
// digest plus the explicit (n, m) pair accidental collisions on real
// workloads stay vanishingly unlikely. Equality of fingerprints — not of
// graphs — is the cache's correctness assumption, the standard
// content-hash trade; the hash is not a security boundary.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace bcclap::graph {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo && a.vertices == b.vertices &&
           a.edges == b.edges;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }
};

// O(m), one pass over g.edges(), no allocation. Weights hash by bit
// pattern (no tolerance): the cache must only ever equate graphs whose
// solves are bitwise interchangeable.
Fingerprint fingerprint(const Graph& g);

}  // namespace bcclap::graph
