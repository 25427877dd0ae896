#include "bcc/network.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>

#include "common/encoding.h"

namespace bcclap::bcc {

namespace {

// Below this many nodes the parallel fan-out costs more than it saves;
// everything runs inline (the pool does the same cut-off by grain).
constexpr std::size_t kParallelGrainNodes = 16;

void check_bandwidth(std::int64_t bandwidth_bits) {
  if (bandwidth_bits < 1) {
    throw std::invalid_argument("Network: bandwidth_bits must be >= 1");
  }
}

}  // namespace

std::int64_t Network::default_bandwidth(std::size_t n) {
  // The textbook B = 2 ceil(log2 n) + 2 degenerates below n = 2: it gives
  // 2 for n = 1 and is undefined for n = 0, too narrow for the minimal
  // [flag | id | id | weight-bit] protocol message (4 bits) to fit one
  // round. Tiny networks pin B = 4, the n = 2 value of the formula.
  if (n <= 2) return 4;
  return 2 * enc::id_bits(n) + 2;
}

Network::Network(Model model, const graph::Graph& g,
                 std::int64_t bandwidth_bits, const common::Context& ctx)
    : model_(model), n_(g.num_vertices()), bandwidth_(bandwidth_bits),
      ctx_(ctx) {
  check_bandwidth(bandwidth_);
  if (model_ != Model::kBroadcastCongest) return;
  using Link = Inboxes::Link;
  auto table = std::make_shared<Inboxes::LinkTable>();
  auto& links = table->links;
  table->offsets.assign(n_ + 1, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    const auto first = static_cast<std::ptrdiff_t>(links.size());
    for (graph::EdgeId e : g.incident(v)) {
      links.push_back({g.other_endpoint(e, v), e});
    }
    // Ascending by neighbour, then edge id; unique() keeps the first link
    // per neighbour, i.e. the lowest edge id between the pair.
    std::sort(links.begin() + first, links.end(),
              [](const Link& a, const Link& b) {
                return a.node != b.node ? a.node < b.node : a.edge < b.edge;
              });
    links.erase(std::unique(links.begin() + first, links.end(),
                            [](const Link& a, const Link& b) {
                              return a.node == b.node;
                            }),
                links.end());
    table->offsets[v + 1] = links.size();
  }
  links_ = std::move(table);
}

Network::Network(Model model, std::size_t n, std::int64_t bandwidth_bits,
                 const common::Context& ctx)
    : model_(model), n_(n), bandwidth_(bandwidth_bits), ctx_(ctx) {
  if (model_ != Model::kBroadcastCongestedClique) {
    throw std::invalid_argument(
        "Network: a topology-free network must be a broadcast clique");
  }
  check_bandwidth(bandwidth_);
}

Inboxes Network::exchange(const std::vector<std::vector<Message>>& outboxes,
                          const std::string& label) {
  if (outboxes.size() != n_) {
    throw std::invalid_argument(
        "Network::exchange: expected one outbox per node");
  }

  // Cost: nodes broadcast in parallel; each node serializes its own
  // messages, one B-bit broadcast per round. Max-over-nodes is
  // order-independent, so the charge is identical at any thread count.
  std::int64_t rounds = 0;
  ctx_.parallel_reduce_chunks(
      0, n_, kParallelGrainNodes, std::int64_t{0},
      [&](std::size_t lo, std::size_t hi, std::int64_t& local) {
        for (std::size_t v = lo; v < hi; ++v) {
          std::int64_t node_rounds = 0;
          for (const Message& msg : outboxes[v]) {
            node_rounds += enc::rounds_for_bits(msg.total_bits(), bandwidth_);
          }
          local = std::max(local, node_rounds);
        }
      },
      [&](std::int64_t& local) { rounds = std::max(rounds, local); });
  accountant_.charge(label, rounds);

  // The outboxes, laid out once in sender order: sender s's messages are
  // in.messages_[in.offsets_[s] .. in.offsets_[s + 1]). Receiving reads
  // them in place through the link table (BC) or the active senders (BCC,
  // which keeps a clique recipient's walk O(active) under sparse traffic).
  Inboxes in;
  in.n_ = n_;
  in.offsets_.assign(n_ + 1, 0);
  for (std::size_t s = 0; s < n_; ++s) {
    in.offsets_[s + 1] = in.offsets_[s] + outboxes[s].size();
  }
  in.messages_.reserve(in.offsets_[n_]);
  for (std::size_t s = 0; s < n_; ++s) {
    if (outboxes[s].empty()) continue;
    in.messages_.insert(in.messages_.end(), outboxes[s].begin(),
                        outboxes[s].end());
    if (!links_) in.active_.push_back({s, kNoEdge});
  }
  in.links_ = links_;
  return in;
}

Inboxes Network::run_superstep(const ComputeFn& compute,
                               const std::string& label) {
  std::vector<std::vector<Message>> outboxes(n_);
  // Grain 1: per-node compute is the heavyweight part of a superstep, so
  // every node is its own unit of work.
  ctx_.parallel_for(0, n_, [&](std::size_t v) { outboxes[v] = compute(v); });
  return exchange(outboxes, label);
}

}  // namespace bcclap::bcc
