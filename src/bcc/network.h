// Bulk-synchronous simulator for the Broadcast CONGEST and Broadcast
// Congested Clique models (Section 2.1).
//
// Semantics enforced:
//  - computation proceeds in synchronous supersteps; in one superstep every
//    node submits the messages it wants to broadcast;
//  - a node broadcasting a total of `b` bits consumes ceil(b / B) rounds
//    (one B-bit broadcast per round); nodes broadcast in parallel, so the
//    superstep costs max over nodes of that quantity;
//  - broadcast constraint: a message is delivered identically to all
//    recipients — in BC mode the node's neighbours in the communication
//    graph, in BCC mode every other node;
//  - internal computation is free (the models allow unlimited local work).
//
// This bulk-synchronous formulation is round-exact for the algorithms in
// the paper: they are described in phases where each vertex broadcasts a
// bounded number of messages per phase, which is precisely the max-over-
// nodes cost the simulator charges.
//
// Execution is thread-parallel: per-node outbox computation
// (run_superstep), round costing, and per-recipient inbox assembly all fan
// out across the workers of the network's execution context
// (common/context.h — the view of the bcclap::Runtime the network was
// built under). Delivery stays deterministic — inboxes[v] is ordered by
// sender id regardless of thread count, and the max-over-nodes round
// charge is order-independent — so a 1-worker and an N-worker
// configuration of the same Runtime produce byte-identical traffic and
// equal round accounting (enforced by tests/test_network_determinism.cpp
// and, across concurrent Runtimes, tests/test_runtime.cpp). Downstream
// layers (spanner, sparsifier) reach the same context through context(),
// so one Runtime's pipeline never touches another's pool.
//
// Delivery copies no message per recipient. A superstep's outboxes are
// laid out once, flat and in sender order, and every recipient's inbox is
// a CSR slice of deliveries that name the sender, the connecting edge and
// the message's index in that flat array.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bcc/message.h"
#include "bcc/round_accountant.h"
#include "common/context.h"
#include "graph/graph.h"

namespace bcclap::bcc {

// Edge id of a delivery that did not travel along a graph edge (BCC mode).
inline constexpr graph::EdgeId kNoEdge = static_cast<graph::EdgeId>(-1);

enum class Model {
  kBroadcastCongest,         // deliver along communication-graph edges
  kBroadcastCongestedClique, // deliver to everyone
};

// The messages delivered by one superstep, as one flat CSR value:
// recipient v's deliveries are inboxes[v], ordered by sender id (and by
// outbox position within one sender).
class Inboxes {
 public:
  struct Delivery {
    std::size_t sender;
    // BC mode: the lowest edge id between sender and recipient — the edge
    // graph::Graph::find_edge reports. BCC mode: kNoEdge.
    graph::EdgeId edge;
    // Index of the message in the superstep's flat outbox array.
    std::size_t message;
  };

  // One recipient's deliveries.
  class Inbox {
   public:
    Inbox(const Delivery* first, const Delivery* last)
        : first_(first), last_(last) {}
    const Delivery* begin() const { return first_; }
    const Delivery* end() const { return last_; }
    std::size_t size() const {
      return static_cast<std::size_t>(last_ - first_);
    }
    bool empty() const { return first_ == last_; }
    const Delivery& operator[](std::size_t i) const { return first_[i]; }

   private:
    const Delivery* first_;
    const Delivery* last_;
  };

  // Number of recipients (the network's node count).
  std::size_t size() const { return offsets_.size() - 1; }
  Inbox operator[](std::size_t v) const {
    return {deliveries_.data() + offsets_[v],
            deliveries_.data() + offsets_[v + 1]};
  }
  const Message& message(const Delivery& d) const {
    return messages_[d.message];
  }
  std::size_t num_deliveries() const { return deliveries_.size(); }

 private:
  friend class Network;

  std::vector<Message> messages_;  // the outboxes, flat in sender order
  // Recipient v's deliveries are deliveries_[offsets_[v] .. offsets_[v+1]).
  std::vector<std::size_t> offsets_{0};
  std::vector<Delivery> deliveries_;
};

class Network {
 public:
  // BC network over the topology of `g` (the usual setting: the input graph
  // is also the communication graph), executing on `ctx`'s worker pool.
  // Both constructors throw std::invalid_argument when bandwidth_bits < 1.
  Network(Model model, const graph::Graph& g, std::int64_t bandwidth_bits,
          const common::Context& ctx);
  // BCC network over n nodes (no topology needed); `model` must be
  // kBroadcastCongestedClique (std::invalid_argument otherwise).
  Network(Model model, std::size_t n, std::int64_t bandwidth_bits,
          const common::Context& ctx);

  Model model() const { return model_; }
  std::size_t num_nodes() const { return n_; }
  std::int64_t bandwidth() const { return bandwidth_; }

  // The execution context this network (and every layer running on it)
  // dispatches parallel work through.
  const common::Context& context() const { return ctx_; }

  // Runs one superstep: outboxes[v] are the messages node v broadcasts
  // (possibly empty). Returns inboxes: inboxes[v] = deliveries to v,
  // ordered by sender id. Charges rounds to `label`. Throws
  // std::invalid_argument unless outboxes.size() == num_nodes().
  Inboxes exchange(const std::vector<std::vector<Message>>& outboxes,
                   const std::string& label);

  // Per-node local computation for run_superstep: node v's compute returns
  // the messages v broadcasts this superstep. Must only write state owned
  // by v (the engine runs nodes concurrently); stateful shared resources —
  // sequential RNG streams in particular — belong outside the compute, not
  // inside it.
  using ComputeFn = std::function<std::vector<Message>(std::size_t node)>;

  // Superstep driver: fans compute(v) out across the worker pool for every
  // node, then exchanges the resulting outboxes. Callers hand the engine
  // their per-node compute instead of looping over nodes themselves.
  Inboxes run_superstep(const ComputeFn& compute, const std::string& label);

  // Charges rounds without message traffic (used for sub-protocols whose
  // cost is known analytically, e.g. the <= k-1 rounds of propagating a
  // cluster-marking bit down the cluster tree in Step 1).
  void charge(const std::string& label, std::int64_t rounds) {
    accountant_.charge(label, rounds);
  }

  const RoundAccountant& accountant() const { return accountant_; }
  RoundAccountant& accountant() { return accountant_; }

  // Default bandwidth for an n-node network: B = 2 ceil(log2 n) + 2, the
  // Theta(log n) of the model definition. The formula degenerates below
  // n = 2 (B = 2 at n = 1, undefined at n = 0 — too narrow for the
  // minimal flag + two ids + weight-bit protocol message); tiny networks
  // pin B = 4, so every n >= 0 is accepted and B is always >= 4.
  static std::int64_t default_bandwidth(std::size_t n);

 private:
  Model model_;
  std::size_t n_;
  std::int64_t bandwidth_;
  common::Context ctx_;
  // BC mode only: node v's neighbours, ascending, each with the lowest edge
  // id joining it to v, at links_[link_offsets_[v] .. link_offsets_[v+1]).
  // Symmetric, so it serves as both send and receive adjacency.
  struct Link {
    std::size_t node;
    graph::EdgeId edge;
  };
  std::vector<std::size_t> link_offsets_;
  std::vector<Link> links_;
  RoundAccountant accountant_;
};

}  // namespace bcclap::bcc
