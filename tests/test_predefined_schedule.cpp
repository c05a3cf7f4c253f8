#include "topo/predefined_schedule.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

namespace negotiator {
namespace {

class PredefinedScheduleTest
    : public ::testing::TestWithParam<std::tuple<TopologyKind, int, int>> {
 protected:
  PredefinedScheduleTest()
      : topo(std::get<0>(GetParam()), std::get<1>(GetParam()),
             std::get<2>(GetParam())),
        sched(topo) {}

  const FlatTopology topo;
  const PredefinedSchedule sched;
};

TEST_P(PredefinedScheduleTest, EveryPairConnectsAtLeastOncePerEpoch) {
  const auto [kind, n, s] = GetParam();
  for (int rotation : {0, 1, 7, 1000}) {
    std::set<std::pair<TorId, TorId>> pairs;
    for (int slot = 0; slot < sched.slots(); ++slot) {
      for (TorId src = 0; src < n; ++src) {
        for (PortId p = 0; p < s; ++p) {
          const TorId dst = sched.dst_of(src, p, slot, rotation);
          if (dst == kInvalidTor) continue;
          EXPECT_NE(dst, src);
          pairs.insert({src, dst});
        }
      }
    }
    EXPECT_EQ(pairs.size(), static_cast<std::size_t>(n) * (n - 1))
        << "all-to-all not covered at rotation " << rotation;
  }
}

TEST_P(PredefinedScheduleTest, NoReceiverCollisionWithinSlot) {
  // Per slot each (dst, rx port) hears at most one source — i.e. the
  // predefined phase itself is collision-free.
  const auto [kind, n, s] = GetParam();
  for (int rotation : {0, 3}) {
    for (int slot = 0; slot < sched.slots(); ++slot) {
      std::set<std::pair<TorId, PortId>> receivers;
      for (TorId src = 0; src < n; ++src) {
        for (PortId p = 0; p < s; ++p) {
          const TorId dst = sched.dst_of(src, p, slot, rotation);
          if (dst == kInvalidTor) continue;
          EXPECT_TRUE(receivers.insert({dst, topo.rx_port(src, p)}).second)
              << "collision at slot " << slot;
        }
      }
    }
  }
}

TEST_P(PredefinedScheduleTest, SrcOfInvertsDstOf) {
  const auto [kind, n, s] = GetParam();
  for (int rotation : {0, 5}) {
    for (int slot = 0; slot < sched.slots(); ++slot) {
      for (TorId src = 0; src < n; ++src) {
        for (PortId p = 0; p < s; ++p) {
          const TorId dst = sched.dst_of(src, p, slot, rotation);
          if (dst == kInvalidTor) continue;
          EXPECT_EQ(sched.src_of(dst, topo.rx_port(src, p), slot, rotation),
                    src);
        }
      }
    }
  }
}

TEST_P(PredefinedScheduleTest, PairConnectionIsConsistent) {
  const auto [kind, n, s] = GetParam();
  for (int rotation : {0, 11}) {
    for (TorId src = 0; src < n; ++src) {
      for (TorId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        const auto c = sched.pair_connection(src, dst, rotation);
        EXPECT_EQ(sched.dst_of(src, c.tx_port, c.slot, rotation), dst);
        EXPECT_TRUE(topo.reachable(src, c.tx_port, dst));
        EXPECT_EQ(c.rx_port, topo.rx_port(src, c.tx_port));
      }
    }
  }
}

TEST_P(PredefinedScheduleTest, SlotRuleMatchesDstOf) {
  // The sparse and dense predefined walks resolve destinations through the
  // per-slot rule; it must agree with dst_of everywhere, idle slots
  // included.
  const auto [kind, n, s] = GetParam();
  for (int rotation : {0, 17, 34, 17 * 127}) {
    for (int slot = 0; slot < sched.slots(); ++slot) {
      const PredefinedSchedule::SlotRule rule =
          sched.slot_rule(slot, rotation);
      for (TorId src = 0; src < n; ++src) {
        for (PortId p = 0; p < s; ++p) {
          ASSERT_EQ(sched.dst_of(rule, src, p),
                    sched.dst_of(src, p, slot, rotation))
              << "src " << src << " tx " << p << " slot " << slot
              << " rotation " << rotation;
        }
      }
    }
  }
}

TEST_P(PredefinedScheduleTest, PairConnectionsCoverTheDenseScanOnce) {
  // The sparse predefined phase marks for_each_pair_connection per pair in
  // one bitmap per slot and visits each slot in (src, tx) order. That
  // reproduces the dense scan only if the union over all pairs is exactly
  // the dense scan's non-idle (slot, src, tx) set, each connection listed
  // once.
  const auto [kind, n, s] = GetParam();
  const int capacity = s * sched.slots();
  for (int rotation : {0, 17, 34, 17 * 127}) {
    using Conn = std::tuple<int, TorId, PortId, TorId>;  // slot, src, tx, dst
    std::set<Conn> dense;
    for (int slot = 0; slot < sched.slots(); ++slot) {
      for (TorId src = 0; src < n; ++src) {
        for (PortId p = 0; p < s; ++p) {
          const TorId dst = sched.dst_of(src, p, slot, rotation);
          if (dst != kInvalidTor) dense.insert({slot, src, p, dst});
        }
      }
    }
    std::set<Conn> sparse;
    std::size_t listed = 0;
    int pairs_meeting_twice = 0;
    for (TorId src = 0; src < n; ++src) {
      for (TorId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        int meets = 0;
        sched.for_each_pair_connection(
            src, dst, rotation,
            [&](const PredefinedSchedule::Connection& c) {
              ++meets;
              sparse.insert({c.slot, src, c.tx_port, dst});
            });
        listed += static_cast<std::size_t>(meets);
        if (meets == 2) ++pairs_meeting_twice;
      }
    }
    EXPECT_EQ(listed, sparse.size())
        << "a connection is listed twice at rotation " << rotation;
    EXPECT_EQ(sparse, dense) << "rotation " << rotation;
    // Parallel capacity S*slots beyond the N-1 offsets makes every source
    // meet capacity - (N-1) destinations twice; thin-clos pairs meet once.
    const int extra = kind == TopologyKind::kParallel ? capacity - (n - 1) : 0;
    EXPECT_EQ(pairs_meeting_twice, n * extra) << "rotation " << rotation;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PredefinedScheduleTest,
    ::testing::Values(
        std::make_tuple(TopologyKind::kParallel, 128, 8),
        std::make_tuple(TopologyKind::kParallel, 16, 4),
        std::make_tuple(TopologyKind::kParallel, 8, 3),
        std::make_tuple(TopologyKind::kParallel, 13, 4),
        std::make_tuple(TopologyKind::kThinClos, 128, 8),
        std::make_tuple(TopologyKind::kThinClos, 16, 4),
        std::make_tuple(TopologyKind::kThinClos, 64, 4),
        std::make_tuple(TopologyKind::kThinClos, 24, 4)));

TEST(PredefinedSchedule, ParallelPaperShapeUses16Slots) {
  const FlatTopology topo(TopologyKind::kParallel, 128, 8);
  const PredefinedSchedule sched(topo);
  EXPECT_EQ(sched.slots(), 16);
}

TEST(PredefinedSchedule, ThinClosPaperShapeUses16Slots) {
  const FlatTopology topo(TopologyKind::kThinClos, 128, 8);
  const PredefinedSchedule sched(topo);
  EXPECT_EQ(sched.slots(), 16);
}

TEST(PredefinedSchedule, RotationMovesPairsAcrossPorts) {
  // §3.6.1: rotating the rule lets a pair exchange messages through
  // different port-to-port links over time (parallel network).
  const FlatTopology topo(TopologyKind::kParallel, 128, 8);
  const PredefinedSchedule sched(topo);
  std::set<PortId> ports;
  for (int rotation = 0; rotation < 127; ++rotation) {
    ports.insert(sched.pair_connection(3, 77, rotation).tx_port);
  }
  EXPECT_EQ(ports.size(), 8u) << "rotation should exercise every plane";
}

TEST(PredefinedSchedule, ThinClosRotationKeepsPortsPinned) {
  const FlatTopology topo(TopologyKind::kThinClos, 128, 8);
  const PredefinedSchedule sched(topo);
  for (int rotation = 0; rotation < 16; ++rotation) {
    const auto c = sched.pair_connection(3, 77, rotation);
    EXPECT_EQ(c.tx_port, 77 / 16);
    EXPECT_EQ(c.rx_port, 3 / 16);
  }
}

}  // namespace
}  // namespace negotiator
