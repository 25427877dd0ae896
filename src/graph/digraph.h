// Directed graph with integral capacities and costs — the min-cost
// max-flow input type (Section 2.4 / Section 5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bcclap::graph {

struct Arc {
  std::size_t tail;      // edge goes tail -> head
  std::size_t head;
  std::int64_t capacity; // > 0
  std::int64_t cost;     // may be negative in general; generators emit >= 0
};

class Digraph {
 public:
  explicit Digraph(std::size_t n = 0) : out_arcs_(n), in_arcs_(n) {}

  std::size_t num_vertices() const { return out_arcs_.size(); }
  std::size_t num_arcs() const { return arcs_.size(); }

  // Throws std::invalid_argument for a self-loop, an endpoint >=
  // num_vertices() or a capacity <= 0.
  std::size_t add_arc(std::size_t tail, std::size_t head,
                      std::int64_t capacity, std::int64_t cost);

  const Arc& arc(std::size_t a) const { return arcs_[a]; }
  const std::vector<Arc>& arcs() const { return arcs_; }
  const std::vector<std::size_t>& out_arcs(std::size_t v) const {
    return out_arcs_[v];
  }
  const std::vector<std::size_t>& in_arcs(std::size_t v) const {
    return in_arcs_[v];
  }

  std::int64_t max_capacity() const;
  std::int64_t max_abs_cost() const;

 private:
  std::vector<Arc> arcs_;
  std::vector<std::vector<std::size_t>> out_arcs_;
  std::vector<std::vector<std::size_t>> in_arcs_;
};

// A flow assignment indexed by arc id plus its derived quantities.
struct FlowResult {
  std::vector<std::int64_t> flow;  // per arc
  std::int64_t value = 0;          // net outflow of s
  std::int64_t cost = 0;           // sum arc.cost * flow
};

// Checks capacity bounds and conservation at every vertex except s, t.
bool is_feasible_flow(const Digraph& g, const std::vector<std::int64_t>& flow,
                      std::size_t s, std::size_t t);
std::int64_t flow_value(const Digraph& g, const std::vector<std::int64_t>& flow,
                        std::size_t s);
std::int64_t flow_cost(const Digraph& g, const std::vector<std::int64_t>& flow);

// Throws std::invalid_argument naming the bad index unless s and t are
// distinct vertices of g; `caller` prefixes the message.
void check_source_sink(const Digraph& g, std::size_t s, std::size_t t,
                       const char* caller);

// Max-flow/min-cut certificate: true iff t is reachable from s in the
// residual graph of `flow` (arc a gives tail -> head while flow[a] <
// capacity and head -> tail while flow[a] > 0). For a feasible s-t flow,
// false means the flow is maximum. Runs as a BFS in BCC rounds: each
// round the vertices reached in the previous one broadcast their ids,
// and every vertex with a residual arc from one of them joins the next
// layer. *layers (when non-null) receives the rounds run: the distance
// to t when reachable, otherwise the residual eccentricity of s plus the
// round that reaches nothing. Throws std::invalid_argument for a bad s or
// t, or a flow not sized to g's arcs.
bool has_augmenting_path(const Digraph& g,
                         const std::vector<std::int64_t>& flow, std::size_t s,
                         std::size_t t, std::size_t* layers = nullptr);

}  // namespace bcclap::graph
