// Unit tests for the deterministic fault-scenario engine
// (engine/fault_scenario.h): uniform-burst equivalence with the legacy
// injector, zonal storm membership, flap renewal well-formedness, churn
// workload rewriting, the resilience recorder, and the horizon-edge
// regressions for repairs landing after the end of the simulation.
#include "engine/fault_scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "engine/runner.h"
#include "stats/resilience_recorder.h"
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

using LinkKey = std::tuple<TorId, PortId, LinkDirection>;

LinkKey key(const ScenarioEvent& e) { return {e.tor, e.port, e.dir}; }

/// Installs a one-spec uniform burst on `fabric`: the Fig. 10 drill.
ScenarioTimeline uniform_burst(FabricSim& fabric, double fraction,
                               Nanos fail_at, Nanos repair_at, Rng& rng) {
  return FaultScenario()
      .uniform_burst({fraction, fail_at, repair_at})
      .install(fabric, rng);
}

// --- Uniform-burst equivalence --------------------------------------------

// Reference copy of the pre-scenario-engine injector's victim selection:
// a uniform burst must reproduce this draw-for-draw.
std::vector<LinkKey> legacy_victims(int n, int ports, double fraction,
                                    Rng& rng) {
  std::vector<LinkKey> all;
  for (TorId t = 0; t < n; ++t) {
    for (PortId p = 0; p < ports; ++p) {
      all.emplace_back(t, p, LinkDirection::kEgress);
      all.emplace_back(t, p, LinkDirection::kIngress);
    }
  }
  const auto target = static_cast<std::size_t>(
      fraction * static_cast<double>(all.size()) + 0.5);
  for (std::size_t i = 0; i < target && i < all.size(); ++i) {
    const auto j = static_cast<std::size_t>(
        i + rng.next_below(static_cast<std::int64_t>(all.size() - i)));
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(target, all.size()));
  return all;
}

TEST(UniformBurst, MatchesLegacyInjectorSelectionDrawForDraw) {
  for (const std::uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
    for (const double fraction : {0.05, 0.2, 0.5}) {
      Rng ref_rng(seed);
      const auto expected = legacy_victims(16, 4, fraction, ref_rng);
      auto fab = make_fabric(cfg16());
      Rng rng(seed);
      const ScenarioTimeline tl =
          uniform_burst(*fab, fraction, 1'000, 50'000, rng);
      std::vector<LinkKey> got;
      for (const ScenarioEvent& e : tl.link_events) {
        if (e.fail) got.push_back(key(e));
      }
      ASSERT_EQ(got.size(), expected.size());
      ASSERT_EQ(tl.failure_count(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << "victim " << i << " diverged at seed " << seed;
      }
      // And the Rng must be left in the same state as the legacy code
      // left it (callers draw from it afterwards).
      EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
    }
  }
}

TEST(UniformBurst, UniformBurstTimelineSchedulesFailThenRepairPerVictim) {
  auto fab = make_fabric(cfg16());
  Rng rng(3);
  FaultScenario fs;
  fs.uniform_burst(UniformBurstSpec{0.1, 2'000, 40'000});
  const auto tl = fs.install(*fab, rng);
  ASSERT_EQ(tl.link_events.size() % 2, 0u);
  for (std::size_t i = 0; i < tl.link_events.size(); i += 2) {
    EXPECT_TRUE(tl.link_events[i].fail);
    EXPECT_FALSE(tl.link_events[i + 1].fail);
    EXPECT_EQ(key(tl.link_events[i]), key(tl.link_events[i + 1]));
    EXPECT_EQ(tl.link_events[i].when, 2'000);
    EXPECT_EQ(tl.link_events[i + 1].when, 40'000);
  }
  EXPECT_TRUE(tl.repairs_everything);
  EXPECT_EQ(tl.last_transition, 40'000);
}

TEST(UniformBurst, NeverRepairedBurstMarksTimeline) {
  auto fab = make_fabric(cfg16());
  Rng rng(4);
  FaultScenario fs;
  fs.uniform_burst(UniformBurstSpec{0.1, 2'000, kNeverNs});
  const auto tl = fs.install(*fab, rng);
  EXPECT_FALSE(tl.repairs_everything);
  EXPECT_EQ(tl.failure_count(), tl.link_events.size()) << "no repairs";
  EXPECT_GT(tl.failure_count(), 0u);
}

// --- Determinism ----------------------------------------------------------

TEST(FaultScenario, InstallIsAPureFunctionOfSeed) {
  FaultScenario fs;
  StormSpec storm;
  storm.bursts = 3;
  storm.first_burst_at = 10'000;
  storm.burst_interval = 50'000;
  FlapSpec flap;
  flap.link_fraction = 0.1;
  flap.end_ns = 200'000;
  ChurnSpec churn;
  churn.events = 2;
  churn.interval = 80'000;
  fs.storm(storm).flapping(flap).host_churn(churn);

  auto run = [&] {
    auto fab = make_fabric(cfg16());
    Rng rng(77);
    return fs.install(*fab, rng);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.link_events.size(), b.link_events.size());
  for (std::size_t i = 0; i < a.link_events.size(); ++i) {
    EXPECT_EQ(key(a.link_events[i]), key(b.link_events[i]));
    EXPECT_EQ(a.link_events[i].when, b.link_events[i].when);
    EXPECT_EQ(a.link_events[i].fail, b.link_events[i].fail);
  }
  ASSERT_EQ(a.churn.size(), b.churn.size());
  for (std::size_t i = 0; i < a.churn.size(); ++i) {
    EXPECT_EQ(a.churn[i].tor, b.churn[i].tor);
    EXPECT_EQ(a.churn[i].leave, b.churn[i].leave);
    EXPECT_EQ(a.churn[i].rejoin, b.churn[i].rejoin);
  }
  EXPECT_EQ(a.last_transition, b.last_transition);
}

// --- Storm membership -----------------------------------------------------

TEST(FaultScenario, TorGroupStormFailsExactlyOneAlignedGroupPerBurst) {
  auto fab = make_fabric(cfg16());
  Rng rng(11);
  StormSpec s;
  s.zone = StormSpec::Zone::kTorGroup;
  s.group_size = 4;
  s.bursts = 3;
  s.first_burst_at = 5'000;
  s.burst_interval = 100'000;
  s.burst_window = 10'000;
  s.outage_ns = 30'000;
  s.repair_stagger = 5'000;
  FaultScenario fs;
  fs.storm(s);
  const auto tl = fs.install(*fab, rng);
  // 3 bursts x (4 ToRs x 4 ports x 2 dirs) x (fail + repair).
  ASSERT_EQ(tl.link_events.size(), 3u * 4 * 4 * 2 * 2);
  const std::size_t per_burst = 4 * 4 * 2 * 2;
  for (int b = 0; b < 3; ++b) {
    const Nanos burst_start = s.first_burst_at + b * s.burst_interval;
    std::set<TorId> tors;
    std::set<LinkKey> failed;
    for (std::size_t i = b * per_burst; i < (b + 1) * per_burst; i += 2) {
      const ScenarioEvent& fail = tl.link_events[i];
      const ScenarioEvent& repair = tl.link_events[i + 1];
      ASSERT_TRUE(fail.fail);
      ASSERT_FALSE(repair.fail);
      EXPECT_EQ(key(fail), key(repair));
      EXPECT_GE(fail.when, burst_start);
      EXPECT_LE(fail.when, burst_start + s.burst_window);
      EXPECT_GE(repair.when, fail.when + s.outage_ns);
      EXPECT_LE(repair.when, fail.when + s.outage_ns + s.repair_stagger);
      tors.insert(fail.tor);
      failed.insert(key(fail));
    }
    // Exactly one aligned group of 4 ToRs, all links covered once.
    ASSERT_EQ(tors.size(), 4u);
    EXPECT_EQ(*tors.begin() % 4, 0) << "group must be aligned";
    EXPECT_EQ(*tors.rbegin() - *tors.begin(), 3);
    EXPECT_EQ(failed.size(), 4u * 4 * 2) << "every directed link once";
  }
}

TEST(FaultScenario, PortPlaneStormCoversEveryTorOnOnePlane) {
  auto fab = make_fabric(cfg16());
  Rng rng(13);
  StormSpec s;
  s.zone = StormSpec::Zone::kPortPlane;
  s.bursts = 1;
  s.first_burst_at = 1'000;
  s.burst_window = 0;
  s.outage_ns = 10'000;
  s.repair_stagger = 0;
  FaultScenario fs;
  fs.storm(s);
  const auto tl = fs.install(*fab, rng);
  ASSERT_EQ(tl.link_events.size(), 16u * 2 * 2);  // all ToRs, both dirs
  std::set<PortId> planes;
  std::set<TorId> tors;
  for (const ScenarioEvent& e : tl.link_events) {
    planes.insert(e.port);
    if (e.fail) tors.insert(e.tor);
  }
  EXPECT_EQ(planes.size(), 1u) << "one plane only";
  EXPECT_EQ(tors.size(), 16u) << "every ToR hit";
}

// --- Flapping -------------------------------------------------------------

TEST(FaultScenario, FlapRenewalsAlternateAndAlwaysRepair) {
  auto fab = make_fabric(cfg16());
  Rng rng(17);
  FlapSpec f;
  f.link_fraction = 0.2;
  f.mtbf_ns = 20'000;
  f.mttr_ns = 5'000;
  f.start_ns = 0;
  f.end_ns = 400'000;
  FaultScenario fs;
  fs.flapping(f);
  const auto tl = fs.install(*fab, rng);
  EXPECT_TRUE(tl.repairs_everything);
  EXPECT_EQ(2 * tl.failure_count(), tl.link_events.size())
      << "one repair per failure";
  EXPECT_GT(tl.failure_count(), 0u);
  // Per link: events alternate fail/repair with strictly increasing times
  // and no new failure at or after end_ns.
  std::map<LinkKey, std::pair<Nanos, bool>> last;  // time, was_fail
  for (const ScenarioEvent& e : tl.link_events) {
    auto it = last.find(key(e));
    if (it != last.end()) {
      EXPECT_GT(e.when, it->second.first);
      EXPECT_NE(e.fail, it->second.second) << "must alternate";
    } else {
      EXPECT_TRUE(e.fail) << "a link's first event is a failure";
    }
    if (e.fail) {
      EXPECT_LT(e.when, f.end_ns);
    }
    last[key(e)] = {e.when, e.fail};
  }
  for (const auto& [k, v] : last) {
    EXPECT_FALSE(v.second) << "every link ends repaired";
  }
}

TEST(FaultScenario, SubThresholdFlapsNeverTripExclusion) {
  // Down times far shorter than `threshold` consecutive dark observations:
  // the FaultPlane must ride them out without ever excluding a port.
  NetworkConfig cfg = cfg16();
  Runner runner(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.6, Rng(5));
  runner.add_flows(gen.generate(0, 1'000'000));
  FlapSpec f;
  f.link_fraction = 0.1;
  f.mtbf_ns = 60'000;
  f.fixed_down_ns = 100;  // ~a single slot of darkness per flap
  f.start_ns = 50'000;
  f.end_ns = 800'000;
  FaultScenario fs;
  fs.flapping(f);
  Rng rng(6);
  const auto tl = fs.install(runner.fabric(), rng);
  ASSERT_GT(tl.failure_count(), 0u);
  runner.fabric().run_until(1'000'000);
  EXPECT_EQ(runner.fabric().excluded_ports(), 0)
      << "sub-threshold flaps must not be excluded";
  runner.fabric().run_until(1'000'000 + 500 * cfg.epoch_length_ns());
  EXPECT_EQ(runner.fabric().links().failed_count(), 0);
  EXPECT_EQ(runner.fabric().total_backlog(), 0) << "flaps stranded traffic";
}

// --- Churn workload rewriting ---------------------------------------------

std::vector<Flow> three_flows(TorId tor) {
  std::vector<Flow> flows;
  for (int i = 0; i < 3; ++i) {
    Flow f;
    f.id = i;
    f.src = (i == 1) ? 5 : tor;  // flow 1 has the ToR as destination
    f.dst = (i == 1) ? tor : 5;
    f.size = 1'000;
    f.arrival = 10'000 + 10'000 * i;  // 10k, 20k, 30k
    flows.push_back(f);
  }
  return flows;
}

TEST(FaultScenario, ChurnAbortDropsFlowsInsideTheWindow) {
  ScenarioTimeline tl;
  tl.churn.push_back(ChurnWindow{2, 15'000, 25'000, ChurnSpec::Mode::kAbort});
  auto flows = three_flows(2);
  FaultScenario::rewrite_flows(flows, tl);
  // Flow 1 (arrival 20k, dst 2) falls inside the window; 0 and 2 survive.
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].id, 0);
  EXPECT_EQ(flows[1].id, 2);
  EXPECT_EQ(flows[0].arrival, 10'000);
  EXPECT_EQ(flows[1].arrival, 30'000);
}

TEST(FaultScenario, ChurnRequeueMovesArrivalToRejoin) {
  ScenarioTimeline tl;
  tl.churn.push_back(
      ChurnWindow{2, 15'000, 25'000, ChurnSpec::Mode::kRequeue});
  auto flows = three_flows(2);
  FaultScenario::rewrite_flows(flows, tl);
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[1].arrival, 25'000);
  EXPECT_EQ(flows[0].arrival, 10'000);
  EXPECT_EQ(flows[2].arrival, 30'000);
}

TEST(FaultScenario, ChainedChurnWindowsResolveToFixpoint) {
  // Requeue out of window A lands inside window B on the same ToR; the
  // flow must end up at B's rejoin time.
  ScenarioTimeline tl;
  tl.churn.push_back(
      ChurnWindow{2, 15'000, 25'000, ChurnSpec::Mode::kRequeue});
  tl.churn.push_back(
      ChurnWindow{2, 24'000, 40'000, ChurnSpec::Mode::kRequeue});
  auto flows = three_flows(2);
  FaultScenario::rewrite_flows(flows, tl);
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[1].arrival, 40'000) << "chained through both windows";
  EXPECT_EQ(flows[2].arrival, 40'000) << "30k falls in the second window";
}

TEST(FaultScenario, ChurnIntegrationDrainsAndConverges) {
  NetworkConfig cfg = cfg16();
  Runner runner(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.5, Rng(9));
  std::vector<Flow> flows = gen.generate(0, 600'000);
  ChurnSpec c;
  c.mode = ChurnSpec::Mode::kRequeue;
  c.events = 2;
  c.first_leave_at = 100'000;
  c.interval = 200'000;
  c.downtime_ns = 80'000;
  FaultScenario fs;
  fs.host_churn(c);
  Rng rng(10);
  const auto tl = fs.install(runner.fabric(), rng);
  ASSERT_EQ(tl.churn.size(), 2u);
  const Bytes injected_before = [&] {
    Bytes b = 0;
    for (const Flow& f : flows) b += f.size;
    return b;
  }();
  FaultScenario::rewrite_flows(flows, tl);
  const Bytes injected_after = [&] {
    Bytes b = 0;
    for (const Flow& f : flows) b += f.size;
    return b;
  }();
  EXPECT_EQ(injected_before, injected_after) << "requeue keeps every byte";
  runner.add_flows(flows);
  runner.fabric().run_until(600'000);
  runner.fabric().run_until(tl.last_transition +
                            2'000 * cfg.epoch_length_ns());
  EXPECT_EQ(runner.fabric().total_backlog(), 0);
  EXPECT_EQ(runner.fabric().fct().completed(), flows.size());
  EXPECT_EQ(runner.fabric().links().failed_count(), 0);
  EXPECT_EQ(runner.fabric().excluded_ports(), 0);
}

// --- Horizon-edge regressions (repairs after sim end) ----------------------

TEST(FaultScenarioHorizon, FailWithoutRepairKeepsCountsStable) {
  NetworkConfig cfg = cfg16();
  Runner runner(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.5, Rng(21));
  runner.add_flows(gen.generate(0, 400'000));
  Rng rng(22);
  const auto victims =
      uniform_burst(runner.fabric(), 0.1, 50'000, kNeverNs, rng)
          .failure_count();
  runner.fabric().run_until(1'000'000);
  const int failed = runner.fabric().links().failed_count();
  const int excluded = runner.fabric().excluded_ports();
  EXPECT_EQ(failed, static_cast<int>(victims));
  EXPECT_GT(excluded, 0) << "standing failures must be detected";
  // Running further epochs (all quiescent) must not skew either count —
  // no double-exclusion, no phantom recovery.
  for (int i = 0; i < 4; ++i) {
    runner.fabric().run_until(runner.fabric().now() + 200'000);
    EXPECT_EQ(runner.fabric().links().failed_count(), failed);
    EXPECT_EQ(runner.fabric().excluded_ports(), excluded);
  }
}

TEST(FaultScenarioHorizon, RepairAfterSimEndIsInertUntilReached) {
  NetworkConfig cfg = cfg16();
  const Nanos horizon = 400'000;
  Runner runner(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.5, Rng(23));
  runner.add_flows(gen.generate(0, horizon));
  Rng rng(24);
  // Repair lands well after the nominal end of the run.
  uniform_burst(runner.fabric(), 0.1, 50'000, horizon + 500'000, rng);
  runner.fabric().run_until(horizon);
  EXPECT_GT(runner.fabric().links().failed_count(), 0);
  const int excluded_at_end = runner.fabric().excluded_ports();
  // Re-running to the same time is a no-op: pending repairs must not fire
  // early or perturb the exclusion set.
  runner.fabric().run_until(horizon);
  EXPECT_EQ(runner.fabric().excluded_ports(), excluded_at_end);
  // Crossing the repair time drains the pending toggles and the fault
  // plane re-includes everything.
  runner.fabric().run_until(horizon + 500'000 +
                            1'000 * cfg.epoch_length_ns());
  EXPECT_EQ(runner.fabric().links().failed_count(), 0);
  EXPECT_EQ(runner.fabric().excluded_ports(), 0);
  EXPECT_EQ(runner.fabric().total_backlog(), 0);
}

TEST(FaultScenarioHorizon, PendingRepairsAtDestructionDoNotLeak) {
  // A fabric destroyed with repair toggles (and a whole flap tail) still
  // queued must release every arena slot — ASan/LSan in CI turns a leak
  // here into a failure.
  NetworkConfig cfg = cfg16();
  auto fab = make_fabric(cfg);
  Rng rng(25);
  FaultScenario fs;
  fs.uniform_burst(UniformBurstSpec{0.2, 10'000, 9'000'000'000});
  FlapSpec f;
  f.link_fraction = 0.1;
  f.mtbf_ns = 30'000;
  f.mttr_ns = 5'000;
  f.end_ns = 8'000'000'000;
  fs.flapping(f);
  fs.install(*fab, rng);
  fab->add_flow([] {
    Flow flow;
    flow.id = 0;
    flow.src = 0;
    flow.dst = 1;
    flow.size = 10'000;
    flow.arrival = 0;
    return flow;
  }());
  fab->run_until(100'000);  // events for billions of ns still pending
  SUCCEED();                // destruction must be clean
}

// --- Resilience recorder ---------------------------------------------------

TEST(ResilienceRecorder, LatencyAccountingFromRawCalls) {
  ResilienceRecorder rec(4, 2);
  rec.on_link_toggle(1'000, 1, 0, LinkDirection::kIngress, true);
  rec.on_exclude(5'000, 1, 0, LinkDirection::kIngress);
  rec.on_link_toggle(9'000, 1, 0, LinkDirection::kIngress, false);
  rec.on_include(14'000, 1, 0, LinkDirection::kIngress);
  EXPECT_EQ(rec.failures(), 1);
  EXPECT_EQ(rec.repairs(), 1);
  EXPECT_EQ(rec.exclusions(), 1);
  EXPECT_EQ(rec.inclusions(), 1);
  EXPECT_EQ(rec.exclusion_churn(), 2);
  EXPECT_EQ(rec.detection().count, 1);
  EXPECT_EQ(rec.detection().sum, 4'000);
  EXPECT_EQ(rec.detection().max, 4'000);
  EXPECT_EQ(rec.recovery().sum, 5'000);
  rec.on_blackholed(1'500);
  rec.on_degraded_delivery(9'000);
  EXPECT_EQ(rec.blackholed_bytes(), 1'500);
  EXPECT_EQ(rec.degraded_delivered_bytes(), 9'000);
  EXPECT_DOUBLE_EQ(rec.control_match_ratio(), 0.0) << "no grant seen yet";
  rec.on_control_match(10, 7);
  EXPECT_EQ(rec.control_grants(), 10);
  EXPECT_EQ(rec.control_accepts(), 7);
  EXPECT_DOUBLE_EQ(rec.control_match_ratio(), 0.7);
}

/// Runs a 0.7-load Hadoop mix through a uniform burst of 10 % of the
/// links (down from 0.2 ms to 1.2 ms) up to 2 ms; returns the victims.
std::int64_t ride_burst(Runner& runner) {
  const NetworkConfig& cfg = runner.fabric().config();
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.7, Rng(31));
  runner.add_flows(gen.generate(0, 2'000'000));
  Rng rng(32);
  const auto victims =
      uniform_burst(runner.fabric(), 0.1, 200'000, 1'200'000, rng)
          .failure_count();
  runner.fabric().run_until(2'000'000);
  return static_cast<std::int64_t>(victims);
}

TEST(ResilienceRecorder, FabricIntegrationMeasuresDetectionAndRecovery) {
  NetworkConfig cfg = cfg16();
  Runner runner(cfg);
  const std::int64_t victims = ride_burst(runner);
  runner.fabric().run_until(2'000'000 + 1'000 * cfg.epoch_length_ns());
  const ResilienceRecorder& rec = runner.fabric().resilience();
  EXPECT_EQ(rec.failures(), victims);
  EXPECT_EQ(rec.repairs(), victims);
  EXPECT_GT(rec.exclusions(), 0) << "a 1 ms outage must be detected";
  EXPECT_EQ(rec.exclusions(), rec.inclusions())
      << "every exclusion recovered after repair";
  EXPECT_GT(rec.detection().count, 0);
  EXPECT_GT(rec.detection().mean(), 0.0);
  EXPECT_GT(rec.recovery().count, 0);
  EXPECT_GT(rec.blackholed_bytes(), 0)
      << "pre-detection dark-fibre transmissions must be counted";
  EXPECT_GT(rec.degraded_delivered_bytes(), 0)
      << "traffic delivered during the outage must be counted";
  EXPECT_EQ(runner.fabric().excluded_ports(), 0) << "fully recovered";
}

// The oblivious fabric shares the link-toggle handler and the delivery
// plane, so its recorder counts the burst and the bytes delivered around
// it; it has no FaultPlane, so nothing is ever excluded or blackholed.
TEST(ResilienceRecorder, ObliviousFabricCountsTogglesWithoutExclusions) {
  NetworkConfig cfg = cfg16();
  cfg.scheduler = SchedulerKind::kOblivious;
  Runner runner(cfg);
  const std::int64_t victims = ride_burst(runner);
  ASSERT_GT(victims, 0);
  const ResilienceRecorder& rec = runner.fabric().resilience();
  EXPECT_EQ(rec.failures(), victims);
  EXPECT_EQ(rec.repairs(), victims);
  EXPECT_GT(rec.degraded_delivered_bytes(), 0)
      << "traffic delivered during the outage must be counted";
  EXPECT_EQ(rec.exclusions(), 0);
  EXPECT_EQ(rec.inclusions(), 0);
  EXPECT_EQ(rec.detection().count, 0);
  EXPECT_EQ(rec.blackholed_bytes(), 0);
  EXPECT_EQ(runner.fabric().excluded_ports(), 0);
}

}  // namespace
}  // namespace negotiator
