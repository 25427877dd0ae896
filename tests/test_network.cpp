#include "bcc/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "graph/generators.h"
#include "support/fixtures.h"

namespace bcclap::bcc {
namespace {

// One delivered message as recipient v sees it through the view.
struct Delivered {
  std::size_t sender;
  graph::EdgeId edge;
  const Message* message;
};

// Recipient v's messages, flattened in view order (ascending sender, then
// outbox position).
std::vector<Delivered> received(const Inboxes& in, std::size_t v) {
  std::vector<Delivered> out;
  for (const Inboxes::FromSender& from : in.from(v)) {
    EXPECT_FALSE(from.messages.empty()) << v << " <- " << from.sender;
    for (const Message& m : from.messages) {
      out.push_back({from.sender, from.edge, &m});
    }
  }
  return out;
}

// Total messages received over every recipient.
std::size_t total_received(const Inboxes& in) {
  std::size_t total = 0;
  for (std::size_t v = 0; v < in.size(); ++v) total += received(in, v).size();
  return total;
}

TEST(Message, FieldsAndBits) {
  Message m;
  m.push_flag(true).push_id(5, 16).push(100, 7);
  EXPECT_EQ(m.num_fields(), 3u);
  EXPECT_EQ(m.field(0), 1u);
  EXPECT_EQ(m.field(1), 5u);
  EXPECT_EQ(m.field(2), 100u);
  EXPECT_EQ(m.total_bits(), 1 + 4 + 7);
}

TEST(Message, PushRejectsBadWidthsAndOverflowingValues) {
  Message m;
  EXPECT_THROW(m.push(0, 0), std::invalid_argument);
  EXPECT_THROW(m.push(0, 65), std::invalid_argument);
  EXPECT_THROW(m.push(0, -1), std::invalid_argument);
  EXPECT_THROW(m.push(8, 3), std::invalid_argument);  // 8 needs 4 bits
  EXPECT_THROW(m.push_id(16, 16), std::invalid_argument);
  // Nothing was appended by the rejected pushes.
  EXPECT_EQ(m.num_fields(), 0u);
  EXPECT_EQ(m.total_bits(), 0);
  m.push(7, 3).push(~std::uint64_t{0}, 64);
  EXPECT_EQ(m.total_bits(), 3 + 64);
}

TEST(Message, PushRejectsFieldsPastInlineCapacity) {
  Message m;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) m.push_flag(true);
  EXPECT_EQ(m.num_fields(), Message::kMaxFields);
  EXPECT_THROW(m.push_flag(true), std::length_error);
  EXPECT_EQ(m.num_fields(), Message::kMaxFields);
  EXPECT_EQ(m.total_bits(), static_cast<int>(Message::kMaxFields));
}

TEST(RoundAccountant, ChargesAndBreaksDown) {
  RoundAccountant acct;
  acct.charge("a", 3);
  acct.charge("b", 2);
  acct.charge("a", 1);
  EXPECT_EQ(acct.total(), 6);
  EXPECT_EQ(acct.total_for("a"), 4);
  EXPECT_EQ(acct.total_for("b"), 2);
  EXPECT_EQ(acct.total_for("missing"), 0);
  const auto mark = acct.mark();
  acct.charge_broadcast_bits("c", 33, 16);  // ceil(33/16) = 3
  EXPECT_EQ(acct.since(mark), 3);
  acct.reset();
  EXPECT_EQ(acct.total(), 0);
}

TEST(Network, BccDeliversToEveryone) {
  auto net = testsupport::bcc_net(4);
  std::vector<std::vector<Message>> out(4);
  out[1].push_back(Message().push_flag(true));
  const auto in = net.exchange(out, "step");
  EXPECT_TRUE(received(in, 1).empty());  // no self-delivery
  for (std::size_t v : {0u, 2u, 3u}) {
    const auto got = received(in, v);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].sender, 1u);
  }
  EXPECT_EQ(net.accountant().total(), 1);
}

TEST(Network, BcDeliversAlongEdgesOnly) {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  auto net = testsupport::bc_net(g);
  std::vector<std::vector<Message>> out(4);
  out[1].push_back(Message().push_flag(false));
  const auto in = net.exchange(out, "step");
  EXPECT_EQ(received(in, 0).size(), 1u);
  EXPECT_EQ(received(in, 2).size(), 1u);
  EXPECT_TRUE(received(in, 3).empty());  // not a neighbour of 1
}

TEST(Network, RoundsAreMaxOverNodes) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{3}, 8,
              testsupport::test_context());
  std::vector<std::vector<Message>> out(3);
  // Node 0 sends two 8-bit messages (2 rounds), node 1 one (1 round).
  out[0].push_back(Message().push(1, 8));
  out[0].push_back(Message().push(2, 8));
  out[1].push_back(Message().push(3, 8));
  net.exchange(out, "step");
  EXPECT_EQ(net.accountant().total(), 2);
}

TEST(Network, WideMessageCostsMultipleRounds) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{2}, 8,
              testsupport::test_context());
  std::vector<std::vector<Message>> out(2);
  out[0].push_back(Message().push(0, 20));  // 20 bits over B=8: 3 rounds
  net.exchange(out, "w");
  EXPECT_EQ(net.accountant().total(), 3);
}

TEST(Network, EmptySuperstepIsFree) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{3}, 8,
              testsupport::test_context());
  net.exchange(std::vector<std::vector<Message>>(3), "idle");
  EXPECT_EQ(net.accountant().total(), 0);
}

TEST(Network, ExchangeRejectsWrongOutboxCount) {
  auto net = testsupport::bcc_net(3);
  EXPECT_THROW(net.exchange(std::vector<std::vector<Message>>(2), "short"),
               std::invalid_argument);
  EXPECT_THROW(net.exchange(std::vector<std::vector<Message>>(4), "long"),
               std::invalid_argument);
  EXPECT_EQ(net.accountant().total(), 0);
  EXPECT_TRUE(net.accountant().breakdown().empty());
}

TEST(Network, ConstructorsRejectBandwidthBelowOne) {
  const auto ctx = testsupport::test_context();
  graph::Graph g(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(Network(Model::kBroadcastCongest, g, 0, ctx),
               std::invalid_argument);
  EXPECT_THROW(Network(Model::kBroadcastCongestedClique, std::size_t{2}, -3,
                       ctx),
               std::invalid_argument);
  EXPECT_NO_THROW(Network(Model::kBroadcastCongest, g, 1, ctx));
  // A topology-free network can only be a clique.
  EXPECT_THROW(Network(Model::kBroadcastCongest, std::size_t{2}, 8, ctx),
               std::invalid_argument);
}

// Every BC delivery carries the edge Graph::find_edge reports for the
// (recipient, sender) pair — on a multigraph, the lowest edge id — and a
// sender's message reaches each neighbour once, however many parallel
// edges join them.
TEST(Network, BcDeliveriesCarryLowestEdgeIdOncePerNeighbour) {
  rng::Stream s(12);
  graph::Graph g = graph::random_connected_gnp(20, 0.3, 5, s);
  const std::size_t simple_m = g.num_edges();
  for (std::size_t e = 0; e < simple_m; e += 2) {
    const graph::Edge ed = g.edge(e);
    g.add_edge(ed.u, ed.v, 9.0);
    if (e % 4 == 0) g.add_edge(ed.v, ed.u, 2.0);
  }
  auto net = testsupport::bc_net(g);
  std::vector<std::vector<Message>> out(g.num_vertices());
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t j = 0; j < v % 3 + 1; ++j) {
      out[v].push_back(Message().push_id(v, g.num_vertices()));
    }
  }
  const Inboxes in = net.exchange(out, "step");
  ASSERT_EQ(in.size(), g.num_vertices());
  std::size_t total = 0;
  for (std::size_t recv = 0; recv < g.num_vertices(); ++recv) {
    std::set<std::size_t> neighbours;
    for (graph::EdgeId e : g.incident(recv)) {
      neighbours.insert(g.other_endpoint(e, recv));
    }
    std::size_t expected = 0;
    for (std::size_t s_id : neighbours) expected += out[s_id].size();
    const auto got = received(in, recv);
    ASSERT_EQ(got.size(), expected) << recv;
    total += expected;
    std::size_t prev_sender = 0;
    for (const Delivered& d : got) {
      EXPECT_TRUE(neighbours.count(d.sender)) << recv;
      EXPECT_GE(d.sender, prev_sender) << recv;  // ascending sender ids
      prev_sender = d.sender;
      const auto found = g.find_edge(recv, d.sender);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(d.edge, *found) << recv << " <- " << d.sender;
      EXPECT_EQ(d.message->field(0), d.sender);
    }
    // The view yields each sender once, strictly ascending.
    std::size_t senders = 0;
    std::size_t last = 0;
    for (const Inboxes::FromSender& from : in.from(recv)) {
      if (senders++ > 0) {
        EXPECT_GT(from.sender, last) << recv;
      }
      last = from.sender;
      EXPECT_EQ(from.messages.size(), out[from.sender].size());
    }
    EXPECT_EQ(senders, neighbours.size()) << recv;
  }
  EXPECT_EQ(total_received(in), total);
}

TEST(Network, BcMultigraphDeliveryUsesLowestParallelEdge) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);  // edge 0
  g.add_edge(1, 2, 1.0);  // edge 1
  g.add_edge(1, 0, 4.0);  // edge 2, parallel to edge 0
  g.add_edge(2, 1, 2.0);  // edge 3, parallel to edge 1
  auto net = testsupport::bc_net(g);
  std::vector<std::vector<Message>> out(3);
  out[1].push_back(Message().push_flag(true));
  const Inboxes in = net.exchange(out, "step");
  const auto at0 = received(in, 0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0].edge, 0u);
  const auto at2 = received(in, 2);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0].edge, 1u);
  EXPECT_TRUE(received(in, 1).empty());
}

TEST(Network, BccDeliveriesCarryNoEdge) {
  auto net = testsupport::bcc_net(5);
  std::vector<std::vector<Message>> out(5);
  out[0].push_back(Message().push_flag(true));
  out[3].push_back(Message().push_flag(false));
  out[3].push_back(Message().push_flag(true));
  const Inboxes in = net.exchange(out, "step");
  for (std::size_t v = 0; v < 5; ++v) {
    for (const auto& d : received(in, v)) EXPECT_EQ(d.edge, kNoEdge) << v;
  }
  EXPECT_EQ(received(in, 1).size(), 3u);
  EXPECT_EQ(received(in, 0).size(), 2u);
  EXPECT_EQ(received(in, 3).size(), 1u);
  EXPECT_EQ(total_received(in), 4u * 1 + 4u * 2);  // n - 1 recipients each
}

TEST(Network, DefaultBandwidthIsThetaLogN) {
  EXPECT_EQ(Network::default_bandwidth(1024), 2 * 10 + 2);
  EXPECT_GE(Network::default_bandwidth(2), 4);
}

// Regression: B = 2 ceil(log2 n) + 2 degenerates for n <= 2 (log2 n <= 1).
// Tiny networks must clamp to B >= 4 — a minimal [flag | id | id | w-bit]
// protocol message — and every n >= 0 must be accepted.
TEST(Network, DefaultBandwidthTinyNetworks) {
  EXPECT_EQ(Network::default_bandwidth(0), 4);
  EXPECT_EQ(Network::default_bandwidth(1), 4);
  EXPECT_EQ(Network::default_bandwidth(2), 4);
  EXPECT_EQ(Network::default_bandwidth(3), 6);
  EXPECT_EQ(Network::default_bandwidth(4), 6);
  // Monotone nondecreasing and always >= 4.
  std::int64_t prev = 0;
  for (std::size_t n = 0; n <= 300; ++n) {
    const std::int64_t b = Network::default_bandwidth(n);
    EXPECT_GE(b, 4) << n;
    EXPECT_GE(b, prev) << n;
    prev = b;
  }
}

TEST(Network, SingleNodeBccExchange) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{1},
              Network::default_bandwidth(1), testsupport::test_context());
  std::vector<std::vector<Message>> out(1);
  out[0].push_back(Message().push_flag(true));
  const auto in = net.exchange(out, "solo");
  // No other node exists; the broadcast still costs its round.
  ASSERT_EQ(in.size(), 1u);
  EXPECT_TRUE(received(in, 0).empty());
  EXPECT_EQ(net.accountant().total(), 1);
}

TEST(Network, TwoNodeExchangeFitsMinimalMessageInOneRound) {
  // flag + id(1) + id(1) + 1-bit weight = 4 bits fits B = 4 exactly.
  Network net(Model::kBroadcastCongestedClique, std::size_t{2},
              Network::default_bandwidth(2), testsupport::test_context());
  std::vector<std::vector<Message>> out(2);
  out[0].push_back(
      Message().push_flag(true).push_id(1, 2).push_id(0, 2).push(1, 1));
  const auto in = net.exchange(out, "pair");
  const auto got = received(in, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].sender, 0u);
  EXPECT_EQ(got[0].message->total_bits(), 4);
  EXPECT_EQ(net.accountant().total(), 1);
}

TEST(Network, TwoNodeBcExchange) {
  graph::Graph g(2);
  g.add_edge(0, 1, 1.0);
  auto net = testsupport::bc_net(g);
  std::vector<std::vector<Message>> out(2);
  out[0].push_back(Message().push_id(0, 2));
  out[1].push_back(Message().push_id(1, 2));
  const auto in = net.exchange(out, "pair");
  const auto at0 = received(in, 0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0].sender, 1u);
  const auto at1 = received(in, 1);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1[0].sender, 0u);
}

TEST(Network, MessagesOrderedBySender) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{4}, 32,
              testsupport::test_context());
  std::vector<std::vector<Message>> out(4);
  out[3].push_back(Message().push(3, 4));
  out[0].push_back(Message().push(0, 4));
  out[2].push_back(Message().push(2, 4));
  const auto in = net.exchange(out, "step");
  const auto got = received(in, 1);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].sender, 0u);
  EXPECT_EQ(got[1].sender, 2u);
  EXPECT_EQ(got[2].sender, 3u);
}

// A BC sender's messages reach each neighbour as one contiguous slice in
// outbox order; silent neighbours are not yielded at all.
TEST(Network, BcSenderSliceKeepsOutboxOrder) {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);  // edge 0
  g.add_edge(0, 2, 1.0);  // edge 1
  g.add_edge(0, 3, 1.0);  // edge 2
  auto net = testsupport::bc_net(g);
  std::vector<std::vector<Message>> out(4);
  out[2].push_back(Message().push(5, 4));
  out[2].push_back(Message().push(3, 4));
  out[2].push_back(Message().push(9, 4));
  out[3].push_back(Message().push(1, 4));
  const Inboxes in = net.exchange(out, "step");
  std::vector<std::size_t> senders;
  for (const Inboxes::FromSender& from : in.from(0)) {
    senders.push_back(from.sender);
    if (from.sender == 2) {
      EXPECT_EQ(from.edge, 1u);
      ASSERT_EQ(from.messages.size(), 3u);
      EXPECT_EQ(from.messages[0].field(0), 5u);
      EXPECT_EQ(from.messages[1].field(0), 3u);
      EXPECT_EQ(from.messages[2].field(0), 9u);
    }
  }
  EXPECT_EQ(senders, (std::vector<std::size_t>{2, 3}));  // 1 is silent
}

// The view owns its messages and shares the network's link table, so it
// stays readable after being moved out of the scope of its Network.
TEST(Network, InboxesOutliveTheirNetwork) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);  // edge 0
  g.add_edge(1, 2, 1.0);  // edge 1
  g.add_edge(2, 1, 1.0);  // edge 2, parallel to edge 1
  Inboxes kept;
  {
    auto net = std::make_unique<Network>(
        Model::kBroadcastCongest, g, Network::default_bandwidth(3),
        testsupport::test_context());
    std::vector<std::vector<Message>> out(3);
    out[1].push_back(Message().push_id(1, 3));
    out[2].push_back(Message().push_id(2, 3));
    Inboxes in = net->exchange(out, "step");
    net.reset();
    kept = std::move(in);
  }
  ASSERT_EQ(kept.size(), 3u);
  const auto at0 = received(kept, 0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0].sender, 1u);
  EXPECT_EQ(at0[0].edge, 0u);
  EXPECT_EQ(at0[0].message->field(0), 1u);
  const auto at1 = received(kept, 1);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1[0].sender, 2u);
  EXPECT_EQ(at1[0].edge, 1u);  // lowest of the parallel pair
  const auto at2 = received(kept, 2);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0].sender, 1u);
  EXPECT_EQ(total_received(kept), 3u);
}

}  // namespace
}  // namespace bcclap::bcc
