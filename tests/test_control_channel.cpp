// Unit contract for the lossy control plane (core/control_channel.h):
// the channel's draw-order and brownout semantics, bit-identity of a
// zero-rate channel with a channel-free build, starvation under total
// loss, the per-slot oblivious fallback's stranded-byte dividend, the
// MatchingValidator invariants, and the channel's fate counters.
// tests/test_pipeline_lossy.cpp is the unit-level companion that sweeps
// raw delivery loss without the seeded channel.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/control_channel.h"
#include "core/matching_validator.h"
#include "core/negotiator_scheduler.h"
#include "engine/runner.h"
#include "stats/resilience_recorder.h"
#include "topo/topology.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

#include "all_pairs_demand.h"

namespace negotiator {
namespace {

constexpr Nanos kDuration = 200'000;

ControlFaultConfig lossy(double drop, bool fallback = false) {
  ControlFaultConfig f;
  f.enabled = true;
  f.request_drop = drop;
  f.grant_drop = drop;
  f.accept_drop = drop;
  f.delay_prob = 0.1;
  f.max_delay_epochs = 2;
  f.duplicate_prob = 0.05;
  f.fallback = fallback;
  return f;
}

/// The test workload (Hadoop sizes at load 0.6) on `runner`, run to
/// kDuration.
RunResult run_workload(Runner& runner) {
  const NetworkConfig& cfg = runner.config();
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.6, Rng(cfg.seed));
  runner.add_flows(gen.generate(0, kDuration));
  return runner.run(kDuration, kDuration / 4);
}

/// Reduced fingerprint of run_workload: each FCT sample's flow and fct,
/// then completed, backlog and events executed.
std::uint64_t run_fingerprint(const NetworkConfig& cfg) {
  Runner runner(cfg);
  const RunResult r = run_workload(runner);
  std::uint64_t h = kFnv1aBasis;
  for (const FctSample& s : runner.fabric().fct().samples()) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.flow));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.fct));
  }
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.completed));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.backlog));
  return fnv1a_mix(h, runner.fabric().events_executed());
}

NetworkConfig base_config(std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.scheduler = SchedulerKind::kNegotiator;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 8;
  cfg.seed = seed;
  cfg.validate_matching = true;
  return cfg;
}

// A channel with every probability at zero classifies every message as
// delivered, and its draws come from a private salted stream — so the
// simulation must be byte-identical to one with the model disabled.
TEST(ControlChannel, ZeroRateChannelIsBitIdenticalToDisabled) {
  NetworkConfig off = base_config(91);
  NetworkConfig on = base_config(91);
  on.control_fault.enabled = true;  // all rates zero
  EXPECT_EQ(run_fingerprint(off), run_fingerprint(on));
}

TEST(ControlChannel, LossyRunsAreDeterministic) {
  NetworkConfig cfg = base_config(92);
  cfg.control_fault = lossy(0.3);
  const std::uint64_t a = run_fingerprint(cfg);
  const std::uint64_t b = run_fingerprint(cfg);
  EXPECT_EQ(a, b);
  cfg.seed = 93;
  EXPECT_NE(a, run_fingerprint(cfg)) << "seed does not reach the channel";
}

// Drive the scheduler directly (the test_pipeline_lossy pattern) under
// total control loss: no request, grant, or accept ever arrives, so the
// pipeline must never produce a match.
TEST(ControlChannel, TotalLossStarvesTheMatching) {
  NetworkConfig cfg;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 4;
  const FlatTopology topo(TopologyKind::kParallel, 16, 4);
  FaultPlane faults(16, 4);
  ControlFaultConfig f = lossy(1.0);
  ControlChannel channel(f, Rng(7 ^ kControlChannelSeedSalt));
  auto scheduler = make_negotiator_scheduler(cfg, topo, Rng(7));
  scheduler->set_control_channel(&channel);

  const AllPairsDemand demand(16);

  std::size_t total_matches = 0;
  for (std::int64_t epoch = 0; epoch < 30; ++epoch) {
    channel.begin_epoch(epoch * cfg.epoch_length_ns());
    scheduler->begin_epoch(epoch, epoch * cfg.epoch_length_ns(), demand,
                           faults);
    total_matches += scheduler->matches().size();
    for (TorId s = 0; s < 16; ++s) {
      for (TorId d = 0; d < 16; ++d) {
        if (s != d) scheduler->deliver_pair(s, d, true);
      }
    }
  }
  EXPECT_EQ(total_matches, 0u);
  EXPECT_GT(channel.dropped(), 0);
  EXPECT_EQ(channel.dropped(), channel.classified());
}

TEST(ControlChannel, BrownoutRaisesTheFloorOnlyInsideTheWindow) {
  ControlFaultConfig f;
  f.enabled = true;  // all base rates zero
  ControlChannel channel(f, Rng(11 ^ kControlChannelSeedSalt));
  channel.add_brownout(1'000, 2'000, 1.0);
  channel.add_brownout(1'500, 1'600, 0.5);  // overlapping; max wins

  channel.begin_epoch(500);
  EXPECT_EQ(channel.brownout_floor(), 0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(channel.classify(ControlClass::kRequest).deliver);
  }
  channel.begin_epoch(1'500);
  EXPECT_EQ(channel.brownout_floor(), 1.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(channel.classify(ControlClass::kGrant).deliver);
  }
  channel.begin_epoch(2'000);  // [start, end): the end epoch is healthy
  EXPECT_EQ(channel.brownout_floor(), 0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(channel.classify(ControlClass::kAccept).deliver);
  }
  EXPECT_EQ(channel.dropped(), 50);
  EXPECT_EQ(channel.classified(), 150);
}

// The channel is the only counter of its fates: each classified message
// is counted once, as the fate classify() returned.
TEST(ControlChannel, CountsEachFateOnce) {
  ControlFaultConfig f = lossy(0.4);
  f.delay_prob = 0.3;
  f.duplicate_prob = 0.2;
  ControlChannel channel(f, Rng(13 ^ kControlChannelSeedSalt));
  channel.begin_epoch(0);
  std::int64_t dropped = 0, delayed = 0, duplicated = 0;
  for (int i = 0; i < 3'000; ++i) {
    const ControlChannel::Fate fate =
        channel.classify(static_cast<ControlClass>(i % 3));
    dropped += fate.deliver ? 0 : 1;
    delayed += fate.delay_epochs > 0 ? 1 : 0;
    duplicated += fate.duplicate ? 1 : 0;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(delayed, 0);
  EXPECT_GT(duplicated, 0);
  EXPECT_EQ(channel.dropped(), dropped);
  EXPECT_EQ(channel.delayed(), delayed);
  EXPECT_EQ(channel.duplicated(), duplicated);
  EXPECT_EQ(channel.classified(), 3'000);
}

TEST(MatchingValidator, AcceptsLegalAndRejectsConflictingMatches) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  MatchingValidator validator(topo);

  // Find two legal matches from distinct sources out of distinct tx ports.
  auto legal = [&topo](TorId src, PortId tx) {
    Match m;
    m.src = src;
    m.tx_port = tx;
    for (TorId d = 0; d < 8; ++d) {
      if (d != src && topo.reachable(src, tx, d)) {
        m.dst = d;
        m.rx_port = topo.rx_port(src, tx);
        return m;
      }
    }
    ADD_FAILURE() << "no reachable destination";
    return m;
  };
  const Match a = legal(0, 0);
  const Match b = legal(1, 1);
  std::vector<Match> ms{a, b};
  EXPECT_TRUE(validator.validate(ms, 1));

  ms = {a, a};  // same (src, tx) twice
  EXPECT_FALSE(validator.validate(ms, 2));
  EXPECT_NE(validator.error().find("tx port double-booked"),
            std::string::npos);

  Match rx_clash = legal(a.dst == 1 ? 2 : 1, a.tx_port);
  // Force a second booking of a's (dst, rx) from another source.
  rx_clash.dst = a.dst;
  rx_clash.rx_port = a.rx_port;
  ms = {a, rx_clash};
  EXPECT_FALSE(validator.validate(ms, 3));

  Match self = a;
  self.dst = self.src;
  ms = {self};
  EXPECT_FALSE(validator.validate(ms, 4));

  Match wrong_rx = a;
  wrong_rx.rx_port = static_cast<PortId>((a.rx_port + 1) % 4);
  ms = {wrong_rx};
  EXPECT_FALSE(validator.validate(ms, 5));
}

// The acceptance bar for the fallback: at heavy control loss, enabling the
// per-slot oblivious fallback must strictly reduce the bytes stranded in
// the source queues at the end of the run, the fabric and its channel must
// count the fallback working, and the recorder the grants it answered.
TEST(ControlChannel, FallbackStrictlyReducesStrandedBytes) {
  NetworkConfig no_fb = base_config(95);
  no_fb.control_fault = lossy(0.4, /*fallback=*/false);
  Runner no_fb_runner(no_fb);
  const RunResult without = run_workload(no_fb_runner);

  NetworkConfig fb = base_config(95);
  fb.control_fault = lossy(0.4, /*fallback=*/true);
  Runner runner(fb);
  const RunResult with = run_workload(runner);
  const auto& fabric =
      dynamic_cast<const NegotiatorFabric&>(runner.fabric());
  const ResilienceRecorder& rec = fabric.resilience();

  EXPECT_LT(with.backlog, without.backlog);
  EXPECT_GE(with.completed, without.completed);
  EXPECT_GT(fabric.degraded_slots(), 0);
  EXPECT_GT(fabric.fallback_bytes(), 0);
  ASSERT_NE(fabric.control_channel(), nullptr);
  EXPECT_GT(fabric.control_channel()->dropped(), 0);
  EXPECT_GT(rec.control_grants(), 0);
  EXPECT_GT(rec.control_match_ratio(), 0.0);
  EXPECT_LE(rec.control_match_ratio(), 1.0);
}

}  // namespace
}  // namespace negotiator
