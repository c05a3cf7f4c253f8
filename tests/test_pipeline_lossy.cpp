// Property sweep: the control plane under random message loss. Whatever
// fraction of predefined-phase exchanges fails, the matching must stay
// conflict-free, and with persistent demand plus any nonzero delivery
// probability, matches must keep being produced (requests are re-sent every
// epoch — the robustness dividend of stateless scheduling, §3.5).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/negotiator_scheduler.h"
#include "topo/topology.h"

#include "all_pairs_demand.h"

namespace negotiator {
namespace {

struct LossCase {
  TopologyKind kind;
  double loss;
  std::uint64_t seed;
};

class LossyPipelineTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossyPipelineTest, ConflictFreeAndLive) {
  const LossCase& c = GetParam();
  NetworkConfig cfg;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 4;
  cfg.topology = c.kind;
  const FlatTopology topo(cfg);
  FaultPlane faults(16, 4);
  AllPairsDemand demand(16);
  auto scheduler = make_negotiator_scheduler(cfg, topo, Rng(c.seed));
  Rng loss_rng(c.seed + 1);

  std::size_t total_matches = 0;
  for (std::int64_t epoch = 0; epoch < 40; ++epoch) {
    scheduler->begin_epoch(epoch, epoch * cfg.epoch_length_ns(), demand,
                           faults);
    // Conflict-freedom must hold under any loss pattern.
    std::set<std::pair<TorId, PortId>> tx, rx;
    for (const Match& m : scheduler->matches()) {
      EXPECT_TRUE(tx.insert({m.src, m.tx_port}).second);
      EXPECT_TRUE(rx.insert({m.dst, m.rx_port}).second);
      EXPECT_TRUE(topo.reachable(m.src, m.tx_port, m.dst));
    }
    total_matches += scheduler->matches().size();
    for (TorId s = 0; s < 16; ++s) {
      for (TorId d = 0; d < 16; ++d) {
        if (s == d) continue;
        scheduler->deliver_pair(s, d, loss_rng.next_double() >= c.loss);
      }
    }
  }
  if (c.loss < 1.0) {
    EXPECT_GT(total_matches, 0u) << "pipeline starved by survivable loss";
  } else {
    EXPECT_EQ(total_matches, 0u) << "matches without any delivered messages";
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, LossyPipelineTest,
    ::testing::Values(LossCase{TopologyKind::kParallel, 0.0, 1},
                      LossCase{TopologyKind::kParallel, 0.1, 2},
                      LossCase{TopologyKind::kParallel, 0.5, 3},
                      LossCase{TopologyKind::kParallel, 0.9, 4},
                      LossCase{TopologyKind::kParallel, 1.0, 5},
                      LossCase{TopologyKind::kThinClos, 0.0, 6},
                      LossCase{TopologyKind::kThinClos, 0.1, 7},
                      LossCase{TopologyKind::kThinClos, 0.5, 8},
                      LossCase{TopologyKind::kThinClos, 0.9, 9},
                      LossCase{TopologyKind::kThinClos, 1.0, 10}));

}  // namespace
}  // namespace negotiator
