#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

namespace bcclap::graph {

EdgeId Graph::add_edge(VertexId u, VertexId v, double weight) {
  const auto edge_name = [&] {
    return "Graph::add_edge: edge {" + std::to_string(u) + ", " +
           std::to_string(v) + "}";
  };
  if (u >= num_vertices() || v >= num_vertices()) {
    throw std::invalid_argument(edge_name() + " has an endpoint outside " +
                                std::to_string(num_vertices()) + " vertices");
  }
  if (u == v) throw std::invalid_argument(edge_name() + " is a self-loop");
  if (u > v) std::swap(u, v);
  const EdgeId id = edges_.size();
  edges_.push_back({u, v, weight});
  adjacency_[u].push_back(id);
  adjacency_[v].push_back(id);
  return id;
}

VertexId Graph::other_endpoint(EdgeId e, VertexId v) const {
  const Edge& ed = edges_[e];
  assert(ed.u == v || ed.v == v);
  return ed.u == v ? ed.v : ed.u;
}

std::optional<EdgeId> Graph::find_edge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return std::nullopt;
  const VertexId probe = degree(u) <= degree(v) ? u : v;
  const VertexId target = probe == u ? v : u;
  for (EdgeId e : adjacency_[probe]) {
    if (other_endpoint(e, probe) == target) return e;
  }
  return std::nullopt;
}

double Graph::total_weight() const {
  double s = 0.0;
  for (const Edge& e : edges_) s += e.weight;
  return s;
}

double Graph::max_weight() const {
  double m = 0.0;
  for (const Edge& e : edges_) m = std::max(m, e.weight);
  return m;
}

std::size_t Graph::max_degree() const {
  std::size_t m = 0;
  for (const auto& adj : adjacency_) m = std::max(m, adj.size());
  return m;
}

bool Graph::is_connected() const {
  const std::size_t n = num_vertices();
  if (n == 0) return true;
  std::vector<bool> seen(n, false);
  std::queue<VertexId> q;
  q.push(0);
  seen[0] = true;
  std::size_t count = 1;
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (EdgeId e : adjacency_[v]) {
      const VertexId u = other_endpoint(e, v);
      if (!seen[u]) {
        seen[u] = true;
        ++count;
        q.push(u);
      }
    }
  }
  return count == n;
}

std::vector<std::size_t> Graph::component_labels() const {
  const std::size_t n = num_vertices();
  std::vector<std::size_t> label(n, static_cast<std::size_t>(-1));
  std::size_t next = 0;
  for (VertexId start = 0; start < n; ++start) {
    if (label[start] != static_cast<std::size_t>(-1)) continue;
    const std::size_t c = next++;
    std::queue<VertexId> q;
    q.push(start);
    label[start] = c;
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop();
      for (EdgeId e : adjacency_[v]) {
        const VertexId u = other_endpoint(e, v);
        if (label[u] == static_cast<std::size_t>(-1)) {
          label[u] = c;
          q.push(u);
        }
      }
    }
  }
  return label;
}

std::size_t Graph::num_components() const {
  const auto labels = component_labels();
  std::size_t k = 0;
  for (std::size_t l : labels) k = std::max(k, l + 1);
  return num_vertices() == 0 ? 0 : k;
}

std::vector<double> Graph::shortest_paths(VertexId src) const {
  const std::size_t n = num_vertices();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    for (EdgeId e : adjacency_[v]) {
      const VertexId u = other_endpoint(e, v);
      const double nd = d + edges_[e].weight;
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
    }
  }
  return dist;
}

}  // namespace bcclap::graph
