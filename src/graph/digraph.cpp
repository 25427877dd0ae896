#include "graph/digraph.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace bcclap::graph {

std::size_t Digraph::add_arc(std::size_t tail, std::size_t head,
                             std::int64_t capacity, std::int64_t cost) {
  const auto arc_name = [&] {
    return "Digraph::add_arc: arc " + std::to_string(tail) + " -> " +
           std::to_string(head);
  };
  if (tail >= num_vertices() || head >= num_vertices()) {
    throw std::invalid_argument(arc_name() + " has an endpoint outside " +
                                std::to_string(num_vertices()) + " vertices");
  }
  if (tail == head) throw std::invalid_argument(arc_name() + " is a self-loop");
  if (capacity <= 0) {
    throw std::invalid_argument(arc_name() + " has capacity " +
                                std::to_string(capacity) + " <= 0");
  }
  const std::size_t id = arcs_.size();
  arcs_.push_back({tail, head, capacity, cost});
  out_arcs_[tail].push_back(id);
  in_arcs_[head].push_back(id);
  return id;
}

std::int64_t Digraph::max_capacity() const {
  std::int64_t m = 0;
  for (const Arc& a : arcs_) m = std::max(m, a.capacity);
  return m;
}

std::int64_t Digraph::max_abs_cost() const {
  std::int64_t m = 0;
  for (const Arc& a : arcs_) m = std::max(m, std::abs(a.cost));
  return m;
}

bool is_feasible_flow(const Digraph& g, const std::vector<std::int64_t>& flow,
                      std::size_t s, std::size_t t) {
  if (flow.size() != g.num_arcs()) return false;
  for (std::size_t a = 0; a < g.num_arcs(); ++a) {
    if (flow[a] < 0 || flow[a] > g.arc(a).capacity) return false;
  }
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    if (v == s || v == t) continue;
    std::int64_t net = 0;
    for (std::size_t a : g.out_arcs(v)) net += flow[a];
    for (std::size_t a : g.in_arcs(v)) net -= flow[a];
    if (net != 0) return false;
  }
  return true;
}

std::int64_t flow_value(const Digraph& g, const std::vector<std::int64_t>& flow,
                        std::size_t s) {
  std::int64_t value = 0;
  for (std::size_t a : g.out_arcs(s)) value += flow[a];
  for (std::size_t a : g.in_arcs(s)) value -= flow[a];
  return value;
}

std::int64_t flow_cost(const Digraph& g,
                       const std::vector<std::int64_t>& flow) {
  std::int64_t cost = 0;
  for (std::size_t a = 0; a < g.num_arcs(); ++a)
    cost += g.arc(a).cost * flow[a];
  return cost;
}

void check_source_sink(const Digraph& g, std::size_t s, std::size_t t,
                       const char* caller) {
  const std::size_t n = g.num_vertices();
  const std::string who = std::string(caller) + ": ";
  if (s >= n) {
    throw std::invalid_argument(who + "source " + std::to_string(s) +
                                " is not one of " + std::to_string(n) +
                                " vertices");
  }
  if (t >= n) {
    throw std::invalid_argument(who + "sink " + std::to_string(t) +
                                " is not one of " + std::to_string(n) +
                                " vertices");
  }
  if (s == t) {
    throw std::invalid_argument(who + "source and sink are both vertex " +
                                std::to_string(s));
  }
}

bool has_augmenting_path(const Digraph& g,
                         const std::vector<std::int64_t>& flow, std::size_t s,
                         std::size_t t, std::size_t* layers) {
  check_source_sink(g, s, t, "graph::has_augmenting_path");
  if (flow.size() != g.num_arcs()) {
    throw std::invalid_argument(
        "graph::has_augmenting_path: flow has " + std::to_string(flow.size()) +
        " entries for " + std::to_string(g.num_arcs()) + " arcs");
  }
  std::vector<char> reached(g.num_vertices(), 0);
  std::vector<std::size_t> frontier{s}, next;
  reached[s] = 1;
  std::size_t rounds = 0;
  bool found = false;
  const auto reach = [&](std::size_t v) {
    if (reached[v]) return;
    reached[v] = 1;
    next.push_back(v);
    if (v == t) found = true;
  };
  while (!frontier.empty() && !found) {
    ++rounds;  // the frontier broadcasts its ids
    next.clear();
    for (std::size_t u : frontier) {
      for (std::size_t a : g.out_arcs(u)) {
        if (flow[a] < g.arc(a).capacity) reach(g.arc(a).head);
      }
      for (std::size_t a : g.in_arcs(u)) {
        if (flow[a] > 0) reach(g.arc(a).tail);
      }
    }
    frontier.swap(next);
  }
  if (layers != nullptr) *layers = rounds;
  return found;
}

}  // namespace bcclap::graph
