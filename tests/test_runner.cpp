// Runner façade and config-derivation helpers.
#include "engine/runner.h"

#include <gtest/gtest.h>

#include <vector>

#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

NetworkConfig small() {
  NetworkConfig c;
  c.num_tors = 8;
  c.ports_per_tor = 4;
  return c;
}

TEST(Runner, MeasureFromExcludesWarmupFlows) {
  NetworkConfig cfg = small();
  Runner warm(cfg), cold(cfg);
  const auto sizes = SizeDistribution::google();
  const Nanos dur = 400'000;
  {
    WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.4, Rng(1));
    warm.add_flows(gen.generate(0, dur));
  }
  {
    WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.4, Rng(1));
    cold.add_flows(gen.generate(0, dur));
  }
  const RunResult with_warmup = warm.run(dur, dur / 2);
  const RunResult without = cold.run(dur, 0);
  EXPECT_LT(with_warmup.mice.count, without.mice.count);
  EXPECT_GT(with_warmup.mice.count, 0u);
}

TEST(Runner, CensoredCountsUnfinishedMeasuredFlows) {
  // `censored` counts exactly the flows arriving in [measure_from,
  // duration) with no completion by the horizon: not the warm-up flows,
  // and not the flows that arrive after the horizon.
  NetworkConfig cfg = small();
  Runner runner(cfg);
  const Nanos dur = 300'000;
  const Nanos from = dur / 3;
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.9, Rng(5));
  const std::vector<Flow> flows = gen.generate(0, 2 * dur);
  runner.add_flows(flows);
  const RunResult r = runner.run(dur, from);
  std::vector<bool> completed(flows.size(), false);
  for (const FctSample& s : runner.fabric().fct().samples()) {
    completed[static_cast<std::size_t>(s.flow)] = true;
  }
  std::size_t expected = 0;
  std::size_t late = 0;
  for (const Flow& f : flows) {
    if (f.arrival >= dur) ++late;
    expected += f.arrival >= from && f.arrival < dur &&
                !completed[static_cast<std::size_t>(f.id)];
  }
  ASSERT_GT(late, 0u);
  EXPECT_GT(r.censored, 0u);
  EXPECT_EQ(r.censored, expected);
  EXPECT_LT(r.censored, r.completed);
}

TEST(Runner, FinishTimeOfGroupTimesOut) {
  NetworkConfig cfg = small();
  Runner runner(cfg);
  // Nothing in group 9 ever arrives.
  EXPECT_EQ(runner.finish_time_of_group(9, 1, 50 * cfg.epoch_length_ns()),
            kNeverNs);
}

TEST(Runner, DeterministicAcrossIdenticalRuns) {
  const auto sizes = SizeDistribution::hadoop();
  RunResult results[2];
  for (int i = 0; i < 2; ++i) {
    NetworkConfig cfg = small();
    Runner runner(cfg);
    WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.6, Rng(7));
    runner.add_flows(gen.generate(0, 500'000));
    results[i] = runner.run(500'000, 100'000);
  }
  EXPECT_EQ(results[0].completed, results[1].completed);
  EXPECT_DOUBLE_EQ(results[0].mice.p99_ns, results[1].mice.p99_ns);
  EXPECT_DOUBLE_EQ(results[0].goodput, results[1].goodput);
}

TEST(Runner, SeedChangesOutcome) {
  const auto sizes = SizeDistribution::hadoop();
  double p99[2];
  for (int i = 0; i < 2; ++i) {
    NetworkConfig cfg = small();
    cfg.seed = static_cast<std::uint64_t>(i + 1);
    Runner runner(cfg);
    WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.6,
                          Rng(cfg.seed));
    runner.add_flows(gen.generate(0, 500'000));
    p99[i] = runner.run(500'000, 100'000).mice.p99_ns;
  }
  EXPECT_NE(p99[0], p99[1]);
}

TEST(WithReconfigurationDelay, ScalesScheduledPhase) {
  NetworkConfig base;
  const NetworkConfig stretched = with_reconfiguration_delay(base, 50);
  EXPECT_EQ(stretched.epoch.guardband_ns, 50);
  EXPECT_EQ(stretched.epoch.scheduled_slots, 150);  // 30 * (50/10)
  // Guardband share of the epoch stays in the same ballpark.
  const double base_share =
      16.0 * 10 / static_cast<double>(base.epoch_length_ns());
  const double new_share =
      16.0 * 50 / static_cast<double>(stretched.epoch_length_ns());
  EXPECT_NEAR(new_share, base_share, base_share * 0.6);
}

TEST(WithReconfigurationDelay, MinimumOneSlot) {
  NetworkConfig base;
  base.epoch.scheduled_slots = 1;
  const NetworkConfig c = with_reconfiguration_delay(base, 10);
  EXPECT_GE(c.epoch.scheduled_slots, 1);
}

}  // namespace
}  // namespace negotiator
