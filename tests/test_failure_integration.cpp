// Fault-tolerance integration (§3.6.1, §4.3): detection, exclusion,
// bandwidth degradation and recovery on the live fabric.
#include <gtest/gtest.h>

#include "engine/fault_scenario.h"
#include "engine/runner.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

NetworkConfig cfg16() {
  NetworkConfig c;
  c.num_tors = 16;
  c.ports_per_tor = 4;
  c.topology = TopologyKind::kParallel;
  return c;
}

Flow backlogged_pair(Bytes size) {
  Flow f;
  f.id = 1;
  f.src = 0;
  f.dst = 5;
  f.size = size;
  f.arrival = 0;
  return f;
}

/// Delivered bytes per ToR-window summed over a window range [a, b).
double delivered_in(const GoodputMeter& g, int num_tors, std::size_t a,
                    std::size_t b) {
  double bytes = 0;
  for (TorId t = 0; t < num_tors; ++t) {
    const auto& s = g.tor_window_series(t);
    for (std::size_t w = a; w < b && w < s.size(); ++w) {
      bytes += static_cast<double>(s[w]);
    }
  }
  return bytes;
}

TEST(UniformBurstFailure, FractionOfLinksFailed) {
  auto fab = make_fabric(cfg16());
  Rng rng(1);
  const std::size_t failed =
      FaultScenario()
          .uniform_burst({0.1, 1'000, kNeverNs})
          .install(*fab, rng)
          .failure_count();
  EXPECT_EQ(failed, static_cast<std::size_t>(0.1 * 2 * 16 * 4 + 0.5));
  EXPECT_EQ(fab->links().failed_count(), 0) << "not before the event fires";
  fab->run_until(2'000);
  EXPECT_EQ(fab->links().failed_count(), static_cast<int>(failed));
}

TEST(UniformBurstFailure, RepairRestoresAllLinks) {
  auto fab = make_fabric(cfg16());
  Rng rng(2);
  FaultScenario().uniform_burst({0.2, 1'000, 50'000}).install(*fab, rng);
  fab->run_until(10'000);
  EXPECT_GT(fab->links().failed_count(), 0);
  fab->run_until(60'000);
  EXPECT_EQ(fab->links().failed_count(), 0);
}

TEST(Failure, TrafficSurvivesSingleEgressFailure) {
  // Rotation moves the pair across planes, so one dead egress cannot stop
  // a pair for good (§3.6.1).
  NetworkConfig cfg = cfg16();
  auto fab = make_fabric(cfg);
  fab->add_flow(backlogged_pair(300'000));
  fab->schedule_link_event(0, 0, 1, LinkDirection::kEgress, /*fail=*/true);
  fab->run_until(300 * cfg.epoch_length_ns());
  EXPECT_EQ(fab->fct().completed(), 1u);
  EXPECT_EQ(fab->total_backlog(), 0);
}

TEST(Failure, DetectionExcludesAndRecoveryReincludes) {
  NetworkConfig cfg = cfg16();
  auto fab = make_fabric(cfg);
  // Keep traffic flowing so observations happen.
  const auto sizes = SizeDistribution::hadoop();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.5, Rng(3));
  const Nanos dur = 2'000'000;
  fab->add_flows(gen.generate(0, dur));
  fab->schedule_link_event(200'000, 2, 0, LinkDirection::kIngress, true);
  fab->schedule_link_event(1'200'000, 2, 0, LinkDirection::kIngress, false);
  fab->run_until(dur);
  // After repair and re-detection everything must flow again: no link is
  // permanently excluded (we can't observe FaultPlane directly here, but a
  // stuck exclusion would strand backlog towards ToR 2).
  fab->run_until(dur + 500 * cfg.epoch_length_ns());
  EXPECT_LT(static_cast<double>(fab->total_backlog()), 1e6)
      << "backlog stuck after recovery";
}

TEST(Failure, BandwidthDropsUnderFailuresAndRecovers) {
  // Fig. 10's shape on a small fabric: with every pair fully backlogged,
  // bandwidth under failures is lower than before, and returns to the
  // pre-failure level after repair.
  NetworkConfig cfg = cfg16();
  const Nanos window = 100'000;
  Runner runner(cfg, window);
  FlowId id = 0;
  for (TorId s = 0; s < 16; ++s) {
    for (TorId d = 0; d < 16; ++d) {
      if (s == d) continue;
      Flow f;
      f.id = id++;
      f.src = s;
      f.dst = d;
      f.size = 60'000'000;  // backlog deep enough to outlast the test
      f.arrival = 0;
      runner.fabric().add_flow(f);
    }
  }
  Rng rng(5);
  FaultScenario()
      .uniform_burst({0.20, 1'500'000, 3'000'000})
      .install(runner.fabric(), rng);
  const Nanos dur = 5'000'000;
  runner.fabric().goodput().set_measure_interval(0, dur);
  runner.fabric().run_until(dur);
  const auto& g = runner.fabric().goodput();
  const double before = delivered_in(g, 16, 5, 14);    // 0.5-1.4 ms
  const double during = delivered_in(g, 16, 18, 27);   // 1.8-2.7 ms
  const double after = delivered_in(g, 16, 36, 45);    // 3.6-4.5 ms
  EXPECT_LT(during, before * 0.97) << "failures must cost bandwidth";
  EXPECT_GT(after, during * 1.02) << "recovery must restore bandwidth";
}

TEST(Failure, ObliviousFabricAlsoSurvivesFailures) {
  NetworkConfig cfg = cfg16();
  cfg.scheduler = SchedulerKind::kOblivious;
  cfg.topology = TopologyKind::kThinClos;
  auto fab = make_fabric(cfg);
  fab->add_flow(backlogged_pair(50'000));
  fab->schedule_link_event(0, 0, 2, LinkDirection::kEgress, true);
  fab->run_until(5'000'000);
  EXPECT_EQ(fab->fct().completed(), 1u);
}

// --- Regression pins for the batched relay data plane (relay delay line) ---

TEST(Failure, DenseFallbackStillObservesEveryLink) {
  // The predefined phase falls back to the dense N×P scan on unhealthy
  // slots so the fault detector observes *every* connection, not just the
  // sparse interesting pairs. Pin the fallback: with traffic on only one
  // pair, fail an unrelated ingress link — detection can only come from
  // dense-scan dummy observations — then repair it; traffic must keep
  // flowing the whole time and the unrelated pair's flow must complete (a
  // stuck exclusion or a missed observation would strand the epoch
  // pipeline).
  NetworkConfig cfg = cfg16();
  auto fab = make_fabric(cfg);
  fab->add_flow(backlogged_pair(300'000));
  fab->schedule_link_event(50'000, 9, 3, LinkDirection::kIngress, true);
  fab->schedule_link_event(900'000, 9, 3, LinkDirection::kIngress, false);
  fab->run_until(900'001 + 300 * cfg.epoch_length_ns());
  EXPECT_EQ(fab->links().failed_count(), 0);
  EXPECT_EQ(fab->fct().completed(), 1u);
  EXPECT_EQ(fab->total_backlog(), 0);
}

TEST(Failure, SelectiveRelaySpansSurviveFailuresAndStayDeterministic) {
  // The selective-relay variant ships first-hop chunks as one delay-line
  // span per slot. Under mid-run fail + repair, the fabric must drain (no
  // chunk lost in the batched representation) and two identical runs must
  // agree event-for-event (per-chunk executed() accounting).
  auto run_once = [](std::uint64_t seed) {
    NetworkConfig cfg = cfg16();
    cfg.scheduler = SchedulerKind::kNegotiatorSelectiveRelay;
    cfg.topology = TopologyKind::kThinClos;
    auto fab = make_fabric(cfg);
    const auto sizes = SizeDistribution::hadoop();
    WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.9,
                          Rng(seed));
    fab->add_flows(gen.generate(0, 1'000'000));
    fab->schedule_link_event(100'000, 3, 1, LinkDirection::kEgress, true);
    fab->schedule_link_event(120'000, 7, 2, LinkDirection::kIngress, true);
    fab->schedule_link_event(600'000, 3, 1, LinkDirection::kEgress, false);
    fab->schedule_link_event(650'000, 7, 2, LinkDirection::kIngress, false);
    fab->run_until(1'000'000);
    fab->run_until(1'000'000 + 2'000 * cfg.epoch_length_ns());
    return std::tuple<std::size_t, Bytes, std::uint64_t>{
        fab->fct().completed(), fab->total_backlog(),
        fab->events_executed()};
  };
  const auto [completed, backlog, events] = run_once(77);
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(backlog, 0) << "relay chunks stranded after fail/repair";
  EXPECT_EQ(run_once(77), std::make_tuple(completed, backlog, events))
      << "batched relay data plane broke fixed-seed determinism";
}

TEST(Failure, ObliviousRelaySpansUnderFailuresConserveEveryChunk) {
  // Relay-heavy oblivious workload with links failing and recovering
  // mid-run: whole slot spans must not lose or duplicate chunks across
  // the unhealthy window (delivered flows + residual backlog must account
  // for every injected byte).
  NetworkConfig cfg = cfg16();
  cfg.scheduler = SchedulerKind::kOblivious;
  cfg.topology = TopologyKind::kThinClos;
  auto fab = make_fabric(cfg);
  Bytes injected = 0;
  FlowId id = 0;
  for (TorId s = 0; s < cfg.num_tors; ++s) {
    for (TorId d = 0; d < cfg.num_tors; ++d) {
      if (s == d) continue;
      Flow f;
      f.id = id++;
      f.src = s;
      f.dst = d;
      f.size = 30'000;
      f.arrival = (id % 7) * 1'000;
      injected += f.size;
      fab->add_flow(f);
    }
  }
  Rng rng(11);
  FaultScenario()
      .uniform_burst({0.15, 200'000, 2'000'000})
      .install(*fab, rng);
  fab->run_until(4'000'000);
  Bytes delivered = 0;
  for (const FctSample& s : fab->fct().samples()) delivered += s.size;
  EXPECT_EQ(fab->fct().completed(), static_cast<std::size_t>(id))
      << "every flow must finish after repair";
  EXPECT_EQ(delivered + fab->total_backlog(), injected)
      << "relay span lost or duplicated bytes";
}

}  // namespace
}  // namespace negotiator
