// Weighted undirected graph.
//
// Vertices are 0..n-1 (vertex id doubles as processor id in the BC/BCC
// models). Edges are stored once with u < v plus per-vertex adjacency into
// the edge array. Edge ids are stable, which the sparsifier relies on to
// maintain per-edge survival probabilities across iterations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace bcclap::graph {

using VertexId = std::size_t;
using EdgeId = std::size_t;

struct Edge {
  VertexId u;
  VertexId v;
  double weight;
};

class Graph {
 public:
  explicit Graph(std::size_t n = 0) : adjacency_(n) {}

  std::size_t num_vertices() const { return adjacency_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  // Adds edge {u, v} (order normalized to u < v). Throws
  // std::invalid_argument for an endpoint >= num_vertices() or a
  // self-loop (u == v).
  EdgeId add_edge(VertexId u, VertexId v, double weight);

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }

  // Incident edge ids of v.
  const std::vector<EdgeId>& incident(VertexId v) const {
    return adjacency_[v];
  }
  // The endpoint of edge e that is not v.
  VertexId other_endpoint(EdgeId e, VertexId v) const;

  // Edge id of {u, v} if present.
  std::optional<EdgeId> find_edge(VertexId u, VertexId v) const;

  double total_weight() const;
  double max_weight() const;
  std::size_t degree(VertexId v) const { return adjacency_[v].size(); }
  std::size_t max_degree() const;

  bool is_connected() const;

  // Connected-component label per vertex (labels are 0..k-1 in discovery
  // order) and the number of components.
  std::vector<std::size_t> component_labels() const;
  std::size_t num_components() const;

  // Weighted shortest-path distances from src (Dijkstra). Disconnected
  // vertices get +infinity. Used by spanner stretch verification.
  std::vector<double> shortest_paths(VertexId src) const;

  void set_weight(EdgeId e, double w) { edges_[e].weight = w; }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> adjacency_;
};

}  // namespace bcclap::graph
