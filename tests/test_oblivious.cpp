// Integration tests of the Sirius-style traffic-oblivious baseline.
#include <gtest/gtest.h>

#include "engine/runner.h"
#include "oblivious/oblivious_scheduler.h"
#include "workload/generator.h"
#include "workload/incast.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

NetworkConfig oblivious_config() {
  NetworkConfig c;
  c.num_tors = 16;
  c.ports_per_tor = 4;
  c.topology = TopologyKind::kThinClos;
  c.scheduler = SchedulerKind::kOblivious;
  return c;
}

Flow one_flow(TorId src, TorId dst, Bytes size, Nanos arrival, FlowId id = 1) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.arrival = arrival;
  return f;
}

TEST(Oblivious, SingleFlowDeliveredViaRelay) {
  auto fab = make_fabric(oblivious_config());
  fab->add_flow(one_flow(0, 5, 1'000, 0));
  fab->run_until(200'000);
  ASSERT_EQ(fab->fct().completed(), 1u);
  // The detour costs at least two hops of propagation.
  EXPECT_GE(fab->fct().samples()[0].fct,
            2 * fab->config().propagation_delay_ns);
}

TEST(Oblivious, RejectsOutOfRangeEndpoints) {
  auto fab = make_fabric(oblivious_config());
  EXPECT_DEATH(fab->add_flow(one_flow(0, 16, 1'000, 0)), "out of range");
  EXPECT_DEATH(fab->add_flow(one_flow(-1, 5, 1'000, 0)), "out of range");
}

TEST(Oblivious, RelayDoublesWireTraffic) {
  // VLB signature: relay receptions roughly match final deliveries (only
  // the lucky 1/N direct coin skips the detour).
  NetworkConfig cfg = oblivious_config();
  Runner runner(cfg);
  const auto sizes = SizeDistribution::hadoop();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.5, Rng(3));
  const Nanos dur = 1'000'000;
  runner.add_flows(gen.generate(0, dur));
  runner.fabric().goodput().set_measure_interval(0, dur);
  runner.fabric().run_until(dur);
  const auto& g = runner.fabric().goodput();
  EXPECT_GT(g.relay_bytes(), g.delivered_bytes() / 2)
      << "most traffic must take two hops";
}

TEST(Oblivious, DrainsAllTraffic) {
  NetworkConfig cfg = oblivious_config();
  Runner runner(cfg);
  const auto sizes = SizeDistribution::google();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.3, Rng(4));
  auto flows = gen.generate(0, 500'000);
  runner.add_flows(flows);
  runner.fabric().run_until(20'000'000);
  EXPECT_EQ(runner.fabric().fct().completed(), flows.size());
  EXPECT_EQ(runner.fabric().total_backlog(), 0);
}

TEST(Oblivious, ByteConservationThroughRelay) {
  NetworkConfig cfg = oblivious_config();
  auto fab = make_fabric(cfg);
  Bytes offered = 0;
  for (int i = 0; i < 40; ++i) {
    const Bytes size = 3'000 + 777 * i;
    fab->add_flow(one_flow(static_cast<TorId>(i % 16),
                           static_cast<TorId>((i + 5) % 16), size,
                           i * 1'000, i));
    offered += size;
  }
  fab->goodput().set_measure_interval(0, 50'000'000);
  fab->run_until(50'000'000);
  EXPECT_EQ(fab->goodput().delivered_bytes(), offered);
  EXPECT_EQ(fab->total_backlog(), 0);
}

TEST(Oblivious, MiceSlowerThanNegotiator) {
  // The headline claim: NegotiaToR's bypass beats the baseline's detour.
  const auto sizes = SizeDistribution::hadoop();
  const Nanos dur = 2'000'000;
  double fct_oblivious = 0, fct_negotiator = 0;
  for (auto kind : {SchedulerKind::kOblivious, SchedulerKind::kNegotiator}) {
    NetworkConfig cfg = oblivious_config();
    cfg.scheduler = kind;
    Runner runner(cfg);
    WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.7, Rng(5));
    runner.add_flows(gen.generate(0, dur));
    const RunResult r = runner.run(dur, dur / 4);
    if (kind == SchedulerKind::kOblivious) {
      fct_oblivious = r.mice.p99_ns;
    } else {
      fct_negotiator = r.mice.p99_ns;
    }
  }
  EXPECT_GT(fct_oblivious, 2.0 * fct_negotiator);
}

TEST(Oblivious, WorksOnParallelTopologyToo) {
  // §4.1: the baseline performs identically on both topologies; at minimum
  // it must run and drain on the parallel network.
  NetworkConfig cfg = oblivious_config();
  cfg.topology = TopologyKind::kParallel;
  auto fab = make_fabric(cfg);
  fab->add_flow(one_flow(2, 9, 5'000, 0));
  fab->run_until(10'000'000);
  EXPECT_EQ(fab->fct().completed(), 1u);
}

TEST(Oblivious, NoMatchRatioSeries) {
  auto fab = make_fabric(oblivious_config());
  fab->run_until(100'000);
  EXPECT_TRUE(fab->match_ratio_series().empty());
}

}  // namespace
}  // namespace negotiator
