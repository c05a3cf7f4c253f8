// Edge-of-envelope configurations: tiny fabrics, degenerate epochs,
// extreme speedups. The fabric must stay correct (deliver everything,
// conserve bytes) even where the paper's defaults are far away.
#include <gtest/gtest.h>

#include "engine/runner.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

Flow one_flow(TorId src, TorId dst, Bytes size, Nanos arrival, FlowId id = 1) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.arrival = arrival;
  return f;
}

TEST(EdgeCases, TwoTorSinglePortFabric) {
  NetworkConfig cfg;
  cfg.num_tors = 2;
  cfg.ports_per_tor = 1;
  cfg.topology = TopologyKind::kParallel;
  ASSERT_NO_THROW(cfg.validate());
  auto fab = make_fabric(cfg);
  fab->add_flow(one_flow(0, 1, 50'000, 0));
  fab->add_flow(one_flow(1, 0, 50'000, 0, 2));
  fab->run_until(200 * cfg.epoch_length_ns());
  EXPECT_EQ(fab->fct().completed(), 2u);
  EXPECT_EQ(fab->total_backlog(), 0);
}

TEST(EdgeCases, ThinClosTwoByTwo) {
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.ports_per_tor = 2;
  cfg.topology = TopologyKind::kThinClos;
  auto fab = make_fabric(cfg);
  for (TorId s = 0; s < 4; ++s) {
    for (TorId d = 0; d < 4; ++d) {
      if (s != d) {
        fab->add_flow(one_flow(s, d, 10'000, 0, s * 4 + d));
      }
    }
  }
  fab->run_until(300 * cfg.epoch_length_ns());
  EXPECT_EQ(fab->fct().completed(), 12u);
  EXPECT_EQ(fab->total_backlog(), 0);
}

TEST(EdgeCases, ThinClosOneTorPerBlock) {
  // num_tors == ports_per_tor: every block holds one ToR, so a ToR's
  // own-block grant and accept rings are empty. Both fabrics must build
  // and drain an all-to-all exchange.
  for (const SchedulerKind kind :
       {SchedulerKind::kNegotiator, SchedulerKind::kOblivious}) {
    for (const int n : {4, 8}) {
      NetworkConfig cfg;
      cfg.num_tors = n;
      cfg.ports_per_tor = n;
      cfg.topology = TopologyKind::kThinClos;
      cfg.scheduler = kind;
      auto fab = make_fabric(cfg);
      for (TorId s = 0; s < n; ++s) {
        for (TorId d = 0; d < n; ++d) {
          if (s != d) fab->add_flow(one_flow(s, d, 10'000, 0, s * n + d));
        }
      }
      fab->run_until(300 * cfg.epoch_length_ns());
      EXPECT_EQ(fab->fct().completed(), static_cast<std::size_t>(n) * (n - 1))
          << "n=" << n << " scheduler=" << static_cast<int>(kind);
      EXPECT_EQ(fab->total_backlog(), 0);
    }
  }
}

TEST(EdgeCases, ZeroScheduledSlotsDegeneratesToRoundRobin) {
  // §3.6.4: a predefined-dominated epoch degenerates to pure round-robin —
  // only the piggyback path moves data, slowly but correctly.
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  cfg.epoch.scheduled_slots = 0;
  auto fab = make_fabric(cfg);
  fab->add_flow(one_flow(0, 3, 5'000, 0));
  fab->run_until(50 * cfg.epoch_length_ns());
  EXPECT_EQ(fab->fct().completed(), 1u);
}

TEST(EdgeCases, HugeGuardband) {
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  cfg.epoch.guardband_ns = 1'000;  // 100x the paper's
  ASSERT_NO_THROW(cfg.validate());
  auto fab = make_fabric(cfg);
  fab->add_flow(one_flow(1, 2, 20'000, 0));
  fab->run_until(50 * cfg.epoch_length_ns());
  EXPECT_EQ(fab->fct().completed(), 1u);
}

TEST(EdgeCases, FractionalSpeedupBelowOne) {
  // Heavily oversubscribed uplinks still deliver, just slowly.
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  cfg.speedup = 0.5;
  ASSERT_NO_THROW(cfg.validate());
  auto fab = make_fabric(cfg);
  fab->add_flow(one_flow(0, 7, 30'000, 0));
  fab->run_until(200 * cfg.epoch_length_ns());
  EXPECT_EQ(fab->fct().completed(), 1u);
}

TEST(EdgeCases, FlowLargerThanAnyWindow) {
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  auto fab = make_fabric(cfg);
  fab->add_flow(one_flow(0, 1, 50'000'000, 0));  // 50 MB elephant
  fab->run_until(3'000'000);
  const Bytes moved = 50'000'000 - fab->total_backlog();
  EXPECT_GT(moved, 0);
  fab->run_until(40'000'000);
  EXPECT_EQ(fab->fct().completed(), 1u);
}

TEST(EdgeCases, SimultaneousOppositeFlows) {
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  auto fab = make_fabric(cfg);
  fab->add_flow(one_flow(0, 1, 100'000, 0, 1));
  fab->add_flow(one_flow(1, 0, 100'000, 0, 2));
  fab->run_until(100 * cfg.epoch_length_ns());
  EXPECT_EQ(fab->fct().completed(), 2u);
}

TEST(EdgeCases, ManyTinyFlowsOnePair) {
  // Stress segment bookkeeping: hundreds of 1-byte flows on one pair. One
  // packet carries one flow's bytes, so each predefined-phase connection
  // moves exactly one of these flows — drain takes ~one epoch per flow.
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  auto fab = make_fabric(cfg);
  for (int i = 0; i < 300; ++i) {
    fab->add_flow(one_flow(2, 5, 1, i * 10, i));
  }
  fab->run_until(400 * cfg.epoch_length_ns());
  EXPECT_EQ(fab->fct().completed(), 300u);
  EXPECT_EQ(fab->total_backlog(), 0);
}

TEST(EdgeCases, OneHundredPercentLoadTinyFabricStaysSane) {
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.ports_per_tor = 2;
  const auto sizes = SizeDistribution::google();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 1.0, Rng(3));
  Runner runner(cfg);
  const Nanos dur = 500'000;
  auto flows = gen.generate(0, dur);
  Bytes offered = 0;
  for (const Flow& f : flows) offered += f.size;
  runner.add_flows(flows);
  runner.fabric().goodput().set_measure_interval(0, 100 * dur);
  runner.fabric().run_until(100 * dur);
  EXPECT_EQ(runner.fabric().goodput().delivered_bytes(), offered);
}

TEST(EdgeCases, ObliviousTinyFabric) {
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.ports_per_tor = 2;
  cfg.topology = TopologyKind::kThinClos;
  cfg.scheduler = SchedulerKind::kOblivious;
  auto fab = make_fabric(cfg);
  fab->add_flow(one_flow(0, 3, 10'000, 0));
  fab->run_until(5'000'000);
  EXPECT_EQ(fab->fct().completed(), 1u);
  EXPECT_EQ(fab->total_backlog(), 0);
}

}  // namespace
}  // namespace negotiator
