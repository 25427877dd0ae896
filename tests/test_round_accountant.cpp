// Edge cases for the round accountant: zero-round and zero-message charges,
// label bookkeeping, snapshot arithmetic, and reset.
#include "bcc/round_accountant.h"

#include <gtest/gtest.h>

#include "bcc/network.h"
#include "support/comparators.h"
#include "support/fixtures.h"

namespace bcclap::bcc {
namespace {

TEST(RoundAccountant, StartsEmpty) {
  RoundAccountant acct;
  EXPECT_EQ(acct.total(), 0);
  EXPECT_TRUE(acct.breakdown().empty());
  EXPECT_EQ(acct.total_for("anything"), 0);
}

TEST(RoundAccountant, ZeroRoundChargeRecordsLabelOnly) {
  // Charging 0 rounds is legal (a phase that happened to send nothing);
  // the label appears in the breakdown but the totals stay put.
  RoundAccountant acct;
  acct.charge("silent-phase", 0);
  EXPECT_EQ(acct.total(), 0);
  EXPECT_EQ(acct.total_for("silent-phase"), 0);
  EXPECT_EQ(acct.breakdown().count("silent-phase"), 1u);
}

TEST(RoundAccountant, ZeroBitBroadcastChargesNothing) {
  RoundAccountant acct;
  acct.charge_broadcast_bits("empty-payload", 0, 16);
  EXPECT_EQ(acct.total(), 0);
}

TEST(RoundAccountant, BroadcastBitsRoundsUp) {
  RoundAccountant acct;
  acct.charge_broadcast_bits("a", 1, 16);   // 1 round
  acct.charge_broadcast_bits("a", 16, 16);  // 1 round
  acct.charge_broadcast_bits("a", 17, 16);  // 2 rounds
  EXPECT_EQ(acct.total_for("a"), 4);
  EXPECT_TRUE(testsupport::RoundsAtMost(acct, 4));
  EXPECT_FALSE(testsupport::RoundsAtMost(acct, 3));
}

TEST(RoundAccountant, DegenerateBandwidthClampsToOne) {
  // Bandwidth <= 0 behaves as 1 bit/round (matches enc::rounds_for_bits).
  RoundAccountant acct;
  acct.charge_broadcast_bits("b", 5, 0);
  EXPECT_EQ(acct.total(), 5);
}

TEST(RoundAccountant, MarkSinceMeasuresSubPhases) {
  RoundAccountant acct;
  acct.charge("pre", 7);
  const auto m = acct.mark();
  EXPECT_EQ(acct.since(m), 0);
  acct.charge("solve", 3);
  acct.charge("solve", 2);
  EXPECT_EQ(acct.since(m), 5);
  EXPECT_EQ(acct.total(), 12);
}

TEST(RoundAccountant, ResetClearsTotalsAndBreakdown) {
  RoundAccountant acct;
  acct.charge("x", 4);
  acct.charge("y", 1);
  acct.reset();
  EXPECT_EQ(acct.total(), 0);
  EXPECT_TRUE(acct.breakdown().empty());
  EXPECT_EQ(acct.total_for("x"), 0);
}

TEST(RoundAccountant, ZeroMessageSuperstepIsFree) {
  // A superstep in which no node broadcasts charges no rounds — internal
  // computation is free in the BC/BCC models.
  auto net = testsupport::bcc_net(4);
  const std::vector<std::vector<Message>> silence(4);
  const Inboxes inboxes = net.exchange(silence, "silence");
  EXPECT_EQ(net.accountant().total(), 0);
  ASSERT_EQ(inboxes.size(), 4u);
  for (std::size_t v = 0; v < inboxes.size(); ++v) {
    const auto from = inboxes.from(v);
    EXPECT_TRUE(from.begin() == from.end());
  }
}

TEST(RoundAccountant, LabelsAccumulateIndependently) {
  auto net = testsupport::bcc_net(3);
  std::vector<std::vector<Message>> out(3);
  out[0].push_back(Message().push_flag(true));
  (void)net.exchange(out, "phase-1");
  (void)net.exchange(out, "phase-2");
  (void)net.exchange(out, "phase-1");
  const auto& acct = net.accountant();
  EXPECT_EQ(acct.total_for("phase-1"), 2);
  EXPECT_EQ(acct.total_for("phase-2"), 1);
  EXPECT_EQ(acct.total(), 3);
}

}  // namespace
}  // namespace bcclap::bcc
