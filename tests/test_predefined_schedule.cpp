#include "topo/predefined_schedule.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

namespace negotiator {
namespace {

class PredefinedScheduleTest
    : public ::testing::TestWithParam<std::tuple<TopologyKind, int, int>> {};

TEST_P(PredefinedScheduleTest, EveryPairConnectsAtLeastOncePerEpoch) {
  const auto [kind, n, s] = GetParam();
  PredefinedSchedule sched(kind, n, s);
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
  PredefinedSchedule sched(kind, n, s);
  const int block = kind == TopologyKind::kThinClos ? n / s : 0;
  for (int rotation : {0, 3}) {
    for (int slot = 0; slot < sched.slots(); ++slot) {
      std::set<std::pair<TorId, PortId>> receivers;
      for (TorId src = 0; src < n; ++src) {
        for (PortId p = 0; p < s; ++p) {
          const TorId dst = sched.dst_of(src, p, slot, rotation);
          if (dst == kInvalidTor) continue;
          const PortId rx = kind == TopologyKind::kParallel
                                ? p
                                : static_cast<PortId>(src / block);
          EXPECT_TRUE(receivers.insert({dst, rx}).second)
              << "collision at slot " << slot;
        }
      }
    }
  }
}

TEST_P(PredefinedScheduleTest, SrcOfInvertsDstOf) {
  const auto [kind, n, s] = GetParam();
  PredefinedSchedule sched(kind, n, s);
  const int block = kind == TopologyKind::kThinClos ? n / s : 0;
  for (int rotation : {0, 5}) {
    for (int slot = 0; slot < sched.slots(); ++slot) {
      for (TorId src = 0; src < n; ++src) {
        for (PortId p = 0; p < s; ++p) {
          const TorId dst = sched.dst_of(src, p, slot, rotation);
          if (dst == kInvalidTor) continue;
          const PortId rx = kind == TopologyKind::kParallel
                                ? p
                                : static_cast<PortId>(src / block);
          EXPECT_EQ(sched.src_of(dst, rx, slot, rotation), src);
        }
      }
    }
  }
}

TEST_P(PredefinedScheduleTest, PairConnectionIsConsistent) {
  const auto [kind, n, s] = GetParam();
  PredefinedSchedule sched(kind, n, s);
  for (int rotation : {0, 11}) {
    for (TorId src = 0; src < n; ++src) {
      for (TorId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        const auto c = sched.pair_connection(src, dst, rotation);
        EXPECT_EQ(sched.dst_of(src, c.tx_port, c.slot, rotation), dst);
      }
    }
  }
}

TEST_P(PredefinedScheduleTest, PairConnectionsCoverTheDenseScanOnce) {
  // The sparse predefined phase gathers pair_connections per pair and
  // sorts each slot's bucket by (src, tx). That reproduces the dense scan
  // only if the union over all pairs is exactly the dense scan's non-idle
  // (slot, src, tx) set, each connection listed once.
  const auto [kind, n, s] = GetParam();
  PredefinedSchedule sched(kind, n, s);
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
    std::vector<PredefinedSchedule::Connection> conns;
    for (TorId src = 0; src < n; ++src) {
      for (TorId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        conns.clear();
        sched.pair_connections(src, dst, rotation, conns);
        listed += conns.size();
        for (const auto& c : conns) sparse.insert({c.slot, src, c.tx_port, dst});
      }
    }
    EXPECT_EQ(listed, sparse.size())
        << "a connection is listed twice at rotation " << rotation;
    EXPECT_EQ(sparse, dense) << "rotation " << rotation;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PredefinedScheduleTest,
    ::testing::Values(
        std::make_tuple(TopologyKind::kParallel, 128, 8),
        std::make_tuple(TopologyKind::kParallel, 16, 4),
        std::make_tuple(TopologyKind::kParallel, 8, 3),
        std::make_tuple(TopologyKind::kThinClos, 128, 8),
        std::make_tuple(TopologyKind::kThinClos, 16, 4),
        std::make_tuple(TopologyKind::kThinClos, 64, 4)));

TEST(PredefinedSchedule, ParallelPaperShapeUses16Slots) {
  PredefinedSchedule sched(TopologyKind::kParallel, 128, 8);
  EXPECT_EQ(sched.slots(), 16);
}

TEST(PredefinedSchedule, ThinClosPaperShapeUses16Slots) {
  PredefinedSchedule sched(TopologyKind::kThinClos, 128, 8);
  EXPECT_EQ(sched.slots(), 16);
}

TEST(PredefinedSchedule, RotationMovesPairsAcrossPorts) {
  // §3.6.1: rotating the rule lets a pair exchange messages through
  // different port-to-port links over time (parallel network).
  PredefinedSchedule sched(TopologyKind::kParallel, 128, 8);
  std::set<PortId> ports;
  for (int rotation = 0; rotation < 127; ++rotation) {
    ports.insert(sched.pair_connection(3, 77, rotation).tx_port);
  }
  EXPECT_EQ(ports.size(), 8u) << "rotation should exercise every plane";
}

TEST(PredefinedSchedule, ThinClosRotationKeepsPortsPinned) {
  PredefinedSchedule sched(TopologyKind::kThinClos, 128, 8);
  for (int rotation = 0; rotation < 16; ++rotation) {
    const auto c = sched.pair_connection(3, 77, rotation);
    EXPECT_EQ(c.tx_port, 77 / 16);
    EXPECT_EQ(c.rx_port, 3 / 16);
  }
}

}  // namespace
}  // namespace negotiator
