#include <gtest/gtest.h>

#include "topo/topology.h"
#include "topo/topology_factory.h"

namespace negotiator {
namespace {

TEST(ParallelNetwork, EveryPortReachesEveryOtherTor) {
  const FlatTopology topo(TopologyKind::kParallel, 16, 4);
  for (TorId s = 0; s < 16; ++s) {
    for (PortId p = 0; p < 4; ++p) {
      for (TorId d = 0; d < 16; ++d) {
        EXPECT_EQ(topo.reachable(s, p, d), s != d);
      }
    }
  }
}

TEST(ParallelNetwork, RxPortEqualsTxPort) {
  const FlatTopology topo(TopologyKind::kParallel, 16, 4);
  for (PortId p = 0; p < 4; ++p) {
    EXPECT_EQ(topo.rx_port(0, p), p);
    EXPECT_TRUE(topo.lands_on(0, p));
    EXPECT_EQ(topo.grant_tx_port(5, p), p) << "a grant keeps its plane";
  }
}

TEST(ParallelNetwork, NoFixedTxPort) {
  const FlatTopology topo(TopologyKind::kParallel, 16, 4);
  EXPECT_EQ(topo.fixed_tx_port(0, 1), kInvalidPort);
}

TEST(ParallelNetwork, RxSourcesAreAllOthers) {
  const FlatTopology topo(TopologyKind::kParallel, 16, 4);
  const auto sources = topo.rx_sources(3, 0);
  EXPECT_EQ(sources.size(), 15u);
  for (TorId s : sources) EXPECT_NE(s, 3);
}

TEST(ThinClos, BlockStructure) {
  const FlatTopology topo(TopologyKind::kThinClos, 128, 8);
  EXPECT_EQ(topo.block_size(), 16);
  EXPECT_EQ(topo.block_of(0), 0);
  EXPECT_EQ(topo.block_of(15), 0);
  EXPECT_EQ(topo.block_of(16), 1);
  EXPECT_EQ(topo.block_of(127), 7);
}

TEST(ThinClos, PairPinnedToIdenticalPorts) {
  // §3.6.1: one source-destination pair communicates through one fixed
  // port pair: tx = block(dst), rx = block(src).
  const FlatTopology topo(TopologyKind::kThinClos, 128, 8);
  for (TorId s : {0, 17, 100, 127}) {
    for (TorId d : {1, 31, 64, 126}) {
      if (s == d) continue;
      const PortId tx = topo.fixed_tx_port(s, d);
      EXPECT_EQ(tx, d / 16);
      EXPECT_TRUE(topo.reachable(s, tx, d));
      EXPECT_EQ(topo.rx_port(s, tx), s / 16);
      EXPECT_EQ(topo.grant_tx_port(d, s / 16), tx);
      // No other tx port reaches d, and traffic from s lands on no other
      // rx port.
      for (PortId p = 0; p < 8; ++p) {
        EXPECT_EQ(topo.reachable(s, p, d), p == tx);
        EXPECT_EQ(topo.lands_on(s, p), p == s / 16);
      }
    }
  }
}

TEST(ThinClos, UnionOfPortsCoversNetwork) {
  const FlatTopology topo(TopologyKind::kThinClos, 128, 8);
  for (TorId s : {0, 63, 127}) {
    std::vector<bool> covered(128, false);
    for (PortId p = 0; p < 8; ++p) {
      for (TorId d : topo.tx_destinations(s, p)) {
        EXPECT_FALSE(covered[static_cast<std::size_t>(d)]) << "duplicate";
        covered[static_cast<std::size_t>(d)] = true;
      }
    }
    int reach = 0;
    for (bool b : covered) reach += b ? 1 : 0;
    EXPECT_EQ(reach, 127);  // everyone but self
    EXPECT_FALSE(covered[static_cast<std::size_t>(s)]);
  }
}

TEST(ThinClos, RxSourcesAreTheGroup) {
  const FlatTopology topo(TopologyKind::kThinClos, 128, 8);
  const auto sources = topo.rx_sources(5, 2);  // group 2 = ToRs 32..47
  EXPECT_EQ(sources.size(), 16u);
  for (TorId s : sources) {
    EXPECT_GE(s, 32);
    EXPECT_LT(s, 48);
  }
  // Destination inside its own group's port loses one source (itself).
  const auto own = topo.rx_sources(5, 0);
  EXPECT_EQ(own.size(), 15u);
  for (TorId s : own) EXPECT_NE(s, 5);
}

TEST(ThinClos, RxSourcesConsistentWithReachability) {
  const FlatTopology topo(TopologyKind::kThinClos, 64, 4);
  for (TorId d = 0; d < 64; ++d) {
    for (PortId rx = 0; rx < 4; ++rx) {
      for (TorId s : topo.rx_sources(d, rx)) {
        const PortId tx = topo.fixed_tx_port(s, d);
        EXPECT_TRUE(topo.reachable(s, tx, d));
        EXPECT_EQ(topo.rx_port(s, tx), rx);
      }
    }
  }
}

TEST(TopologyFactory, BuildsRequestedKind) {
  NetworkConfig c;
  c.topology = TopologyKind::kParallel;
  EXPECT_EQ(make_topology(c)->kind(), TopologyKind::kParallel);
  c.topology = TopologyKind::kThinClos;
  EXPECT_EQ(make_topology(c)->kind(), TopologyKind::kThinClos);
}

TEST(TopologyFactory, PropagatesDimensions) {
  NetworkConfig c;
  c.num_tors = 64;
  c.ports_per_tor = 4;
  const auto topo = make_topology(c);
  EXPECT_EQ(topo->num_tors(), 64);
  EXPECT_EQ(topo->ports_per_tor(), 4);
  EXPECT_EQ(topo->predefined_slots(), c.predefined_slots());
}

}  // namespace
}  // namespace negotiator
