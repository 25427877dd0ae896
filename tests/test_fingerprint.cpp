// graph::fingerprint (graph/fingerprint.h): the cache identity of a
// weighted graph. The contract under test is exactly the one the
// factorization cache relies on — insensitive to edge insertion order and
// endpoint orientation, sensitive to every bit that changes solve results
// (weight bits and the edge that carries them, endpoint pairs, edge
// multiplicity, the vertex count including isolated vertices).
#include "graph/fingerprint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace bcclap::graph {
namespace {

Graph from_edges(std::size_t n,
                 const std::vector<std::tuple<VertexId, VertexId, double>>&
                     edges) {
  Graph g(n);
  for (const auto& [u, v, w] : edges) g.add_edge(u, v, w);
  return g;
}

TEST(Fingerprint, ExposesVertexAndEdgeCounts) {
  const Graph g = from_edges(5, {{0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 1.0}});
  const Fingerprint fp = fingerprint(g);
  EXPECT_EQ(fp.vertices, 5u);
  EXPECT_EQ(fp.edges, 3u);
}

TEST(Fingerprint, EqualUnderEdgeReordering) {
  const Graph a = from_edges(4, {{0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 1.0},
                                 {2, 3, 0.5}});
  // Same multiset of edges, inserted in a different order and with the
  // endpoints of two edges written in the opposite orientation.
  const Graph b = from_edges(4, {{3, 2, 0.5}, {0, 2, 1.0}, {2, 1, 3.0},
                                 {0, 1, 2.0}});
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, EqualForIndependentlyBuiltRandomGraph) {
  // A generator rerun with the same seed must land on the same
  // fingerprint — the repeat-request scenario the cache serves.
  rng::Stream s1(42), s2(42);
  const Graph a = random_regularish(64, 4, 8, s1);
  const Graph b = random_regularish(64, 4, 8, s2);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, WeightPerturbationByOneUlpChangesIt) {
  const std::vector<std::tuple<VertexId, VertexId, double>> edges = {
      {0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 1.0}};
  const Graph a = from_edges(3, edges);
  Graph b = from_edges(3, edges);
  b.set_weight(1, std::nextafter(3.0, 4.0));
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, EdgeFlipToDifferentEndpointChangesIt) {
  const Graph a = from_edges(4, {{0, 1, 2.0}, {1, 2, 3.0}});
  const Graph b = from_edges(4, {{0, 1, 2.0}, {1, 3, 3.0}});
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, IsolatedVertexCountChangesIt) {
  // Same edges, one extra isolated vertex: L_G gains a zero row/column,
  // so solutions differ and the fingerprints must too.
  const std::vector<std::tuple<VertexId, VertexId, double>> edges = {
      {0, 1, 2.0}, {1, 2, 3.0}};
  EXPECT_NE(fingerprint(from_edges(3, edges)),
            fingerprint(from_edges(4, edges)));
}

TEST(Fingerprint, ExtraEdgeChangesIt) {
  const Graph a = from_edges(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  const Graph b = from_edges(3, {{0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 1.0}});
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, SignedZeroWeightsHashEqual) {
  // -0.0 and +0.0 produce identical Laplacians; the bit-pattern hash
  // normalizes the sign so the cache equates them.
  Graph a(2), b(2);
  a.add_edge(0, 1, 0.0);
  b.add_edge(0, 1, -0.0);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, WeightsBindToTheirOwnEndpointPairs) {
  // Same endpoint pairs and the same weight multiset, but the two weights
  // swapped between the edges: a different Laplacian.
  const Graph a = from_edges(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  const Graph b = from_edges(3, {{0, 1, 3.0}, {1, 2, 2.0}});
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, EdgeMultiplicityCounts) {
  // {e, e, f} and {e, f, f} share n, m and the set of distinct edges; only
  // the multiplicities differ.
  const Graph a = from_edges(3, {{0, 1, 2.0}, {0, 1, 2.0}, {1, 2, 3.0}});
  const Graph b = from_edges(3, {{0, 1, 2.0}, {1, 2, 3.0}, {1, 2, 3.0}});
  EXPECT_NE(fingerprint(a), fingerprint(b));
  // {e, e, f} and {g, g, f}: an XOR of edge digests cancels each pair and
  // would equate them; the sum keeps both copies.
  const Graph c = from_edges(3, {{0, 2, 1.0}, {0, 2, 1.0}, {1, 2, 3.0}});
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(Fingerprint, EqualUnderShuffleAndReorientationAtScale) {
  rng::Stream gen(7);
  const Graph g = random_regularish(2048, 8, 4, gen);
  std::vector<Edge> edges = g.edges();
  rng::Stream s(8);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[s.next_below(i)]);
  }
  Graph h(g.num_vertices());
  for (const Edge& e : edges) {
    if (s.next_u64() & 1) {
      h.add_edge(e.v, e.u, e.weight);
    } else {
      h.add_edge(e.u, e.v, e.weight);
    }
  }
  EXPECT_EQ(fingerprint(g), fingerprint(h));
}

TEST(Fingerprint, GoldenValues) {
  // Pinned digests: any change to the hash (seeds, mixing, lane
  // finalization) changes every FactorCache key and must be deliberate.
  const Fingerprint small = fingerprint(
      from_edges(4, {{0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 1.0}, {2, 3, 0.5}}));
  EXPECT_EQ(small.hi, 0x348ebd450c42ee26ULL);
  EXPECT_EQ(small.lo, 0xd431ddc6d56d26e6ULL);

  // A weighted 10-cycle with one parallel edge, one zero-weight edge and
  // two isolated vertices.
  Graph cycle(12);
  for (VertexId v = 0; v < 10; ++v) {
    cycle.add_edge(v, (v + 1) % 10, 0.25 + static_cast<double>(v));
  }
  cycle.add_edge(3, 4, 1e-3);
  cycle.add_edge(7, 2, -0.0);
  const Fingerprint ring = fingerprint(cycle);
  EXPECT_EQ(ring.vertices, 12u);
  EXPECT_EQ(ring.edges, 12u);
  EXPECT_EQ(ring.hi, 0x1eaa65e6b4dcc0e7ULL);
  EXPECT_EQ(ring.lo, 0x6a3511493c062355ULL);
}

}  // namespace
}  // namespace bcclap::graph
