#include "tor/tor_switch.h"

#include <gtest/gtest.h>

namespace negotiator {
namespace {

Flow make_flow(FlowId id, TorId src, TorId dst, Bytes size, Nanos arrival) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.arrival = arrival;
  return f;
}

TEST(TorSwitch, AcceptFlowUpdatesDemand) {
  TorSwitch tor(0, 8, PiasConfig{});
  tor.accept_flow(make_flow(1, 0, 3, 5'000, 10), 10);
  EXPECT_EQ(tor.pending_to(3), 5'000);
  EXPECT_EQ(tor.total_pending(), 5'000);
  EXPECT_EQ(tor.active_destinations().size(), 1u);
  EXPECT_TRUE(tor.active_destinations().contains(3));
}

TEST(TorSwitch, ActiveDestinationsTrackDrain) {
  TorSwitch tor(0, 8, PiasConfig{});
  tor.accept_flow(make_flow(1, 0, 3, 1'000, 0), 0);
  tor.accept_flow(make_flow(2, 0, 5, 1'000, 0), 0);
  EXPECT_EQ(tor.active_destinations().size(), 2u);
  while (tor.dequeue_packet(3, 600)) {
  }
  EXPECT_FALSE(tor.active_destinations().contains(3));
  EXPECT_TRUE(tor.active_destinations().contains(5));
}

TEST(TorSwitch, PiasOrderAcrossFlows) {
  TorSwitch tor(0, 4, PiasConfig{});
  // Elephant first, then a mouse to the same destination.
  tor.accept_flow(make_flow(1, 0, 2, 100'000, 0), 0);
  tor.accept_flow(make_flow(2, 0, 2, 800, 5), 5);
  // First packet: elephant's first 1KB segment (level 0, earlier).
  auto p1 = tor.dequeue_packet(2, 1'115);
  EXPECT_EQ(p1->flow, 1);
  // Next level-0 data is the mouse — it overtakes the elephant's levels 1-2.
  auto p2 = tor.dequeue_packet(2, 1'115);
  EXPECT_EQ(p2->flow, 2) << "mouse must overtake the elephant body";
}

TEST(TorSwitch, ElephantDequeueLeavesMice) {
  TorSwitch tor(0, 4, PiasConfig{});
  tor.accept_flow(make_flow(1, 0, 2, 50'000, 0), 0);
  auto pkt = tor.dequeue_elephant_packet(2, 1'115);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->level, 2);
  EXPECT_EQ(tor.bytes_at_level(2, 0), 1'000);
}

TEST(TorSwitch, RequeueFrontRestores) {
  TorSwitch tor(0, 4, PiasConfig{});
  tor.accept_flow(make_flow(1, 0, 2, 1'000, 0), 0);
  auto pkt = tor.dequeue_packet(2, 600);
  tor.requeue_front(2, *pkt);
  EXPECT_EQ(tor.pending_to(2), 1'000);
  EXPECT_TRUE(tor.active_destinations().contains(2));
}

TEST(TorSwitch, RejectsForeignFlows) {
  TorSwitch tor(0, 4, PiasConfig{});
  EXPECT_DEATH(tor.accept_flow(make_flow(1, 2, 3, 100, 0), 0),
               "flow does not originate here");
}

TEST(TorSwitch, TotalPendingConserved) {
  TorSwitch tor(1, 16, PiasConfig{});
  Bytes total = 0;
  for (int i = 0; i < 64; ++i) {
    const TorId dst = static_cast<TorId>(i % 16 == 1 ? 2 : i % 16);
    const Bytes size = 997 * (i + 1);
    tor.accept_flow(make_flow(i, 1, dst, size, i), i);
    total += size;
  }
  EXPECT_EQ(tor.total_pending(), total);
  for (TorId d = 0; d < 16; ++d) {
    if (d == tor.id()) continue;
    while (auto p = tor.dequeue_packet(d, 1'115)) total -= p->bytes;
  }
  EXPECT_EQ(total, 0);
  EXPECT_EQ(tor.total_pending(), 0);
  EXPECT_TRUE(tor.active_destinations().empty());
}

TEST(TorSwitch, TakeRunMatchesSequentialDequeues) {
  // Twin switches with the same flows: a run on one must carry the exact
  // packets that sequential dequeue_packet calls yield on the other, and
  // leave identical pending/active state behind.
  TorSwitch bulk(0, 8, PiasConfig{});
  TorSwitch seq(0, 8, PiasConfig{});
  for (int i = 0; i < 40; ++i) {
    const TorId dst = static_cast<TorId>(1 + i % 7);
    const Flow f = make_flow(i, 0, dst, 1 + (i * 7'919) % 40'000, i);
    bulk.accept_flow(f, i);
    seq.accept_flow(f, i);
  }
  for (int round = 0; round < 400; ++round) {
    const TorId dst = static_cast<TorId>(1 + round % 7);
    const PacketRun run = bulk.take_run(dst, 1'115, 4);
    Bytes total = 0;
    for (std::uint32_t i = 0; i < run.packets; ++i) {
      const auto want = seq.dequeue_packet(dst, 1'115);
      ASSERT_TRUE(want.has_value()) << "round " << round;
      EXPECT_EQ(want->flow, run.flow);
      EXPECT_EQ(want->bytes, i + 1 < run.packets ? 1'115 : run.last_bytes);
      total += want->bytes;
    }
    EXPECT_EQ(run.bytes, total);
    if (run.packets == 0) {
      EXPECT_FALSE(seq.dequeue_packet(dst, 1'115).has_value());
    }
    ASSERT_EQ(bulk.pending_to(dst), seq.pending_to(dst));
    ASSERT_EQ(bulk.total_pending(), seq.total_pending());
    ASSERT_EQ(bulk.active_destinations().contains(dst),
              seq.active_destinations().contains(dst));
  }
  EXPECT_EQ(bulk.total_pending(), 0);
}

}  // namespace
}  // namespace negotiator
