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
// (run_superstep) and round costing fan out across the workers of the
// network's execution context (common/context.h — the view of the
// bcclap::Runtime the network was built under). Delivery stays
// deterministic — inboxes.from(v) walks senders by ascending id
// regardless of thread count, and the max-over-nodes round
// charge is order-independent — so a 1-worker and an N-worker
// configuration of the same Runtime produce byte-identical traffic and
// equal round accounting (enforced by tests/test_network_determinism.cpp
// and, across concurrent Runtimes, tests/test_runtime.cpp). Downstream
// layers (spanner, sparsifier) reach the same context through context(),
// so one Runtime's pipeline never touches another's pool.
//
// Receiving materializes nothing per recipient. A superstep's outboxes are
// laid out once, flat and in sender order, and the returned Inboxes is a
// view over them: per-sender offsets into that array plus the adjacency a
// recipient hears from. inboxes.from(v) walks v's senders in ascending id
// order and yields each one's id, connecting edge and contiguous slice of
// messages, so a receiver reads the traffic it needs and nothing else. In
// BC mode the adjacency is the network's immutable link table, built once
// from the topology and shared by every Inboxes the network returns; in
// BCC mode it is the superstep's list of active senders.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bcc/message.h"
#include "bcc/round_accountant.h"
#include "common/context.h"
#include "graph/graph.h"

namespace bcclap::bcc {

// Edge id of a sender heard without a graph edge (BCC mode).
inline constexpr graph::EdgeId kNoEdge = static_cast<graph::EdgeId>(-1);

enum class Model {
  kBroadcastCongest,         // deliver along communication-graph edges
  kBroadcastCongestedClique, // deliver to everyone
};

// The messages delivered by one superstep, as a view over the flat outbox
// array. inboxes.from(v) yields, in ascending sender id, every sender v
// heard from together with the connecting edge and that sender's messages
// in outbox order. An Inboxes owns its messages and shares the link table,
// so it stays valid after the Network that produced it is gone.
class Inboxes {
  // A sender as one recipient hears it: the sender's id and, in BC mode,
  // the lowest edge id joining the pair (the edge graph::Graph::find_edge
  // reports).
  struct Link {
    std::size_t node;
    graph::EdgeId edge;
  };

  // BC mode: node v's links, ascending by neighbour, at
  // links[offsets[v] .. offsets[v + 1]). Symmetric, so it serves as both
  // send and receive adjacency.
  struct LinkTable {
    std::vector<std::size_t> offsets;
    std::vector<Link> links;
  };

 public:
  // One sender's messages of the superstep, contiguous, in outbox order.
  class Messages {
   public:
    Messages(const Message* first, const Message* last)
        : first_(first), last_(last) {}
    const Message* begin() const { return first_; }
    const Message* end() const { return last_; }
    std::size_t size() const {
      return static_cast<std::size_t>(last_ - first_);
    }
    bool empty() const { return first_ == last_; }
    const Message& operator[](std::size_t i) const { return first_[i]; }

   private:
    const Message* first_;
    const Message* last_;
  };

  // What a recipient heard from one sender.
  struct FromSender {
    std::size_t sender;
    // BC mode: the lowest edge id between sender and recipient. BCC mode:
    // kNoEdge.
    graph::EdgeId edge;
    Messages messages;  // never empty
  };

  // The senders one recipient heard from, ascending by id. Iterators copy
  // what they read, so they stay valid while the Inboxes does.
  class Senders {
   public:
    class iterator {
     public:
      FromSender operator*() const {
        const std::size_t s = cur_->node;
        return {s, cur_->edge,
                {messages_ + offsets_[s], messages_ + offsets_[s + 1]}};
      }
      iterator& operator++() {
        ++cur_;
        skip_silent();
        return *this;
      }
      bool operator!=(const iterator& o) const { return cur_ != o.cur_; }
      bool operator==(const iterator& o) const { return cur_ == o.cur_; }

     private:
      friend class Senders;
      iterator(const Senders& range, const Link* cur)
          : messages_(range.messages_),
            offsets_(range.offsets_),
            cur_(cur),
            end_(range.end_link_),
            self_(range.self_) {
        skip_silent();
      }

      // Steps past links whose sender broadcast nothing, and past the
      // recipient itself on a clique.
      void skip_silent() {
        while (cur_ != end_ &&
               (cur_->node == self_ ||
                offsets_[cur_->node] == offsets_[cur_->node + 1])) {
          ++cur_;
        }
      }

      const Message* messages_;
      const std::size_t* offsets_;
      const Link* cur_;
      const Link* end_;
      std::size_t self_;
    };

    iterator begin() const { return {*this, begin_link_}; }
    iterator end() const { return {*this, end_link_}; }

   private:
    friend class Inboxes;
    Senders(const Inboxes& in, const Link* first, const Link* last,
            std::size_t self)
        : messages_(in.messages_.data()),
          offsets_(in.offsets_.data()),
          begin_link_(first),
          end_link_(last),
          self_(self) {}

    const Message* messages_;
    const std::size_t* offsets_;
    const Link* begin_link_;
    const Link* end_link_;
    std::size_t self_;
  };

  // Number of recipients (the network's node count).
  std::size_t size() const { return n_; }

  // The senders recipient v heard from, ascending by id.
  Senders from(std::size_t v) const {
    if (links_) {
      const Link* base = links_->links.data();
      return {*this, base + links_->offsets[v], base + links_->offsets[v + 1],
              n_};
    }
    return {*this, active_.data(), active_.data() + active_.size(), v};
  }

 private:
  friend class Network;

  std::size_t n_ = 0;
  std::vector<Message> messages_;  // the outboxes, flat in sender order
  // Sender s's messages are messages_[offsets_[s] .. offsets_[s + 1]).
  std::vector<std::size_t> offsets_{0};
  // BC mode: the network's link table. BCC mode: null, and every recipient
  // hears from active_, the senders with messages (ascending, kNoEdge).
  std::shared_ptr<const LinkTable> links_;
  std::vector<Link> active_;
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
  // (possibly empty). Returns the view in which inboxes.from(v) walks the
  // senders v hears from, by ascending id. Charges rounds to `label`. Throws
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
  // BC mode only: the topology's links, shared with every Inboxes this
  // network returns.
  std::shared_ptr<const Inboxes::LinkTable> links_;
  RoundAccountant accountant_;
};

}  // namespace bcclap::bcc
