#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace bcclap::graph {
namespace {

TEST(Graph, AddEdgeNormalizesOrder) {
  Graph g(3);
  const EdgeId e = g.add_edge(2, 1, 5.0);
  EXPECT_EQ(g.edge(e).u, 1u);
  EXPECT_EQ(g.edge(e).v, 2u);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 5.0);
}

TEST(Graph, AddEdgeRejectsBadEndpoints) {
  Graph g(4);
  EXPECT_THROW(g.add_edge(900, 2, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(2, 4, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(2, 2, 1.0), std::invalid_argument);  // self-loop
  // A rejected edge leaves the graph untouched.
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(g.degree(v), 0u);
  EXPECT_EQ(g.add_edge(3, 2, 1.0), 0u);
}

TEST(Graph, FindEdgeAndOtherEndpoint) {
  Graph g(4);
  const EdgeId e = g.add_edge(0, 3, 1.0);
  EXPECT_TRUE(g.find_edge(0, 3).has_value());
  EXPECT_TRUE(g.find_edge(3, 0).has_value());
  EXPECT_FALSE(g.find_edge(1, 2).has_value());
  EXPECT_EQ(g.other_endpoint(e, 0), 3u);
  EXPECT_EQ(g.other_endpoint(e, 3), 0u);
}

TEST(Graph, DegreesAndWeights) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 2, 3.0);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
  EXPECT_DOUBLE_EQ(g.max_weight(), 3.0);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(2, 3, 1.0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, EmptyGraphIsConnected) {
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
}

TEST(Graph, ShortestPathsWeighted) {
  // Triangle with a shortcut: 0-1 (10), 0-2 (1), 2-1 (2).
  Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 2, 2.0);
  const auto d = g.shortest_paths(0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);  // via 2
  EXPECT_DOUBLE_EQ(d[2], 1.0);
}

TEST(Graph, ShortestPathsDisconnected) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto d = g.shortest_paths(0);
  EXPECT_TRUE(std::isinf(d[2]));
}

TEST(Graph, SetWeight) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 1.0);
  g.set_weight(e, 4.0);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 4.0);
}

}  // namespace
}  // namespace bcclap::graph
