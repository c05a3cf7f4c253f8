// The negotiator fabric's scheduled phase has two paths: a per-segment
// drain for epochs in which no (src, dst) pair is coupled to another, and
// the per-slot walk for everything else. Both must produce bit-identical
// output. A data channel whose every probability is 0 (ARQ off) never
// drops a chunk, but it keeps every epoch on the per-slot walk, so the
// same input run with and without it compares the two paths directly.
// One case pins the walk's rule for a drained match under ARQ.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/data_channel.h"
#include "core/epoch.h"
#include "engine/network.h"
#include "tor/host_transport.h"
#include "workload/generator.h"
#include "workload/incast.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

constexpr Nanos kWindowNs = 20'000;

struct Outcome {
  std::vector<FctSample> samples;
  Bytes delivered{0};
  std::vector<std::vector<Bytes>> windows;  // per-ToR goodput series
  Bytes backlog{0};
  std::int64_t match_slots_used{0};
  std::int64_t match_slots_offered{0};
  std::uint64_t deliveries{0};
  std::uint64_t delivery_dispatches{0};
  // Path counters of the run (not compared).
  std::int64_t epochs{0};
  std::int64_t drain_epochs{0};
  std::int64_t dirty_pairs{0};
  std::int64_t total_matches{0};
};

struct LinkFlap {
  Nanos fail_at;
  Nanos repair_at;
};

/// The goodput meter's window and measure interval; `to` == 0 keeps the
/// default interval [duration / 4, duration).
struct Meter {
  Nanos window_ns{kWindowNs};
  Nanos from{0};
  Nanos to{0};
};

/// Runs `flows` for `duration` ns. `per_slot` installs the zero-probability
/// data channel, which forces the per-slot walk on every epoch.
Outcome run(NetworkConfig cfg, const std::vector<Flow>& flows,
            Nanos duration, bool per_slot,
            const std::vector<LinkFlap>& flaps = {}, const Meter& meter = {}) {
  if (per_slot) {
    cfg.data_fault.enabled = true;
    cfg.data_fault.first_hop_drop = 0.0;
    cfg.data_fault.relay_drop = 0.0;
    cfg.data_fault.second_hop_drop = 0.0;
    cfg.data_fault.corrupt_prob = 0.0;
    cfg.data_fault.arq = false;
  }
  NegotiatorFabric fabric(cfg, meter.window_ns);
  if (meter.to > 0) {
    fabric.goodput().set_measure_interval(meter.from, meter.to);
  } else {
    fabric.goodput().set_measure_interval(duration / 4, duration);
  }
  for (const LinkFlap& f : flaps) {
    fabric.schedule_link_event(f.fail_at, 1, 0, LinkDirection::kEgress, true);
    fabric.schedule_link_event(f.repair_at, 1, 0, LinkDirection::kEgress,
                               false);
  }
  fabric.add_flows(flows);
  fabric.run_until(duration);

  Outcome out;
  for (const FctSample& s : fabric.fct().samples()) out.samples.push_back(s);
  out.delivered = fabric.goodput().delivered_bytes();
  for (TorId t = 0; t < cfg.num_tors; ++t) {
    out.windows.push_back(fabric.goodput().tor_window_series(t));
  }
  out.backlog = fabric.total_backlog();
  out.match_slots_used = fabric.match_slots_used();
  out.match_slots_offered = fabric.match_slots_offered();
  out.deliveries = fabric.deliveries();
  out.delivery_dispatches = fabric.delivery_dispatches();
  out.epochs = fabric.current_epoch();
  out.drain_epochs = fabric.drain_epochs();
  out.dirty_pairs = fabric.drain_dirty_pairs();
  out.total_matches = fabric.total_matches();
  return out;
}

void expect_same(const Outcome& drain, const Outcome& walk,
                 const std::string& what) {
  ASSERT_EQ(drain.samples.size(), walk.samples.size()) << what;
  for (std::size_t i = 0; i < drain.samples.size(); ++i) {
    const FctSample& a = drain.samples[i];
    const FctSample& b = walk.samples[i];
    ASSERT_TRUE(a.flow == b.flow && a.size == b.size &&
                a.arrival == b.arrival && a.fct == b.fct &&
                a.group == b.group)
        << what << ": sample " << i << " differs (flow " << a.flow << " vs "
        << b.flow << ", fct " << a.fct << " vs " << b.fct << ")";
  }
  EXPECT_EQ(drain.delivered, walk.delivered) << what;
  EXPECT_EQ(drain.windows, walk.windows) << what;
  EXPECT_EQ(drain.backlog, walk.backlog) << what;
  EXPECT_EQ(drain.match_slots_used, walk.match_slots_used) << what;
  EXPECT_EQ(drain.match_slots_offered, walk.match_slots_offered) << what;
  EXPECT_EQ(drain.deliveries, walk.deliveries) << what;
  EXPECT_EQ(drain.delivery_dispatches, walk.delivery_dispatches) << what;
  EXPECT_EQ(walk.drain_epochs, 0) << what << ": the walk side drained";
}

Flow make_flow(FlowId id, TorId src, TorId dst, Bytes size, Nanos arrival) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.arrival = arrival;
  return f;
}

TEST(ScheduledPaths, RandomConfigsMatchThePerSlotWalk) {
  constexpr SchedulerKind kVariants[] = {
      SchedulerKind::kNegotiator,
      SchedulerKind::kNegotiatorInformativeSize,
      SchedulerKind::kNegotiatorInformativeHol,
      SchedulerKind::kNegotiatorStateful,
      SchedulerKind::kNegotiatorIterative,
  };
  constexpr int kTors[] = {16, 32, 64};
  constexpr Nanos kDuration = 200'000;
  Rng pick(20261017);
  for (int c = 0; c < 24; ++c) {
    NetworkConfig cfg;
    cfg.topology = c % 2 == 0 ? TopologyKind::kParallel
                              : TopologyKind::kThinClos;
    cfg.num_tors = kTors[pick.next_below(3)];
    cfg.scheduler = kVariants[pick.next_below(5)];
    if (cfg.scheduler == SchedulerKind::kNegotiatorIterative) {
      cfg.variant.iterations = 2 + static_cast<int>(pick.next_below(2));
    }
    cfg.pias.enabled = pick.next_below(2) == 0;
    cfg.piggyback = pick.next_below(2) == 0;
    cfg.seed = 1000 + static_cast<std::uint64_t>(c);
    const double load =
        0.3 + 0.5 * static_cast<double>(pick.next_below(1001)) / 1000.0;
    const bool incast = pick.next_below(3) == 0;

    WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                          cfg.host_rate(), load, Rng(cfg.seed));
    std::vector<Flow> flows = gen.generate(0, kDuration);
    if (incast) {
      Rng rng(cfg.seed + 1);
      const std::vector<Flow> burst = make_incast_mix(
          cfg.num_tors, cfg.num_tors / 2, 1_KB, 0.02, cfg.host_rate(), 0,
          kDuration, rng, static_cast<FlowId>(flows.size()));
      flows.insert(flows.end(), burst.begin(), burst.end());
    }

    const std::string what =
        "config " + std::to_string(c) + " (" + to_string(cfg.topology) +
        ", " + to_string(cfg.scheduler) + ", N=" +
        std::to_string(cfg.num_tors) + ", load=" + std::to_string(load) +
        ", pias=" + std::to_string(cfg.pias.enabled) +
        ", piggyback=" + std::to_string(cfg.piggyback) +
        ", incast=" + std::to_string(incast) + ")";
    const Outcome drain = run(cfg, flows, kDuration, /*per_slot=*/false);
    const Outcome walk = run(cfg, flows, kDuration, /*per_slot=*/true);
    EXPECT_EQ(drain.drain_epochs, drain.epochs)
        << what << ": a lossless, failure-free run drains every epoch";
    expect_same(drain, walk, what);
  }
}

TEST(ScheduledPaths, ArrivalRefillsADrainedMatchedPair) {
  // Pair (0, 1) gets a 2 KB flow every epoch, landing in mid-phase after
  // the previous one drained: the pair is dirty and drains slot by slot.
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  cfg.pias.enabled = false;
  const EpochTiming timing(cfg);
  std::vector<Flow> flows;
  const int epochs = 60;
  for (int e = 0; e < epochs; ++e) {
    const Nanos mid = timing.scheduled_slot_start(e, 12) + 7;
    flows.push_back(make_flow(e, 0, 1, 2'000, mid));
    flows.push_back(make_flow(epochs + e, 2, 3, 40'000, mid - 400));
  }
  const Nanos duration = timing.epoch_start(epochs + 10);
  const Outcome drain = run(cfg, flows, duration, false);
  const Outcome walk = run(cfg, flows, duration, true);
  EXPECT_GT(drain.dirty_pairs, 0) << "no pair refilled in mid-phase";
  expect_same(drain, walk, "mid-phase refill");
}

TEST(ScheduledPaths, DrainedMatchWaitsOutAMidPhaseRetransmission) {
  // One packet from 0 to 1 on a fabric that drops every first-hop chunk,
  // with an RTO of 10 scheduled slots. The packet leaves in the scheduled
  // phase of epoch k and is lost; the next slot finds the pair's queue
  // drained, so its matches are marked. The RTO fires mid-phase and queues
  // a retransmission, but a retransmission is not an arrival: the marked
  // matches stay asleep, and the unit waits for epoch k + 1, whose
  // predefined phase serves pairs owed a retransmission. ROADMAP item 11
  // plans to flip this on purpose: the retransmission would then ride a
  // slot of epoch k.
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.num_tors = 4;
  cfg.ports_per_tor = 4;
  cfg.pias.enabled = false;  // one packet, one queue segment
  cfg.piggyback = false;     // the packet can only leave on a match
  cfg.data_fault.enabled = true;
  cfg.data_fault.first_hop_drop = 1.0;
  cfg.data_fault.arq = true;
  const EpochTiming timing(cfg);
  const Nanos rto = timing.scheduled_slot_start(0, 10) -
                    timing.scheduled_slot_start(0, 0);
  cfg.data_fault.rto_epochs = static_cast<double>(rto) /
                              static_cast<double>(timing.epoch_length());
  NegotiatorFabric fabric(cfg);
  fabric.add_flow(make_flow(0, 0, 1, timing.scheduled_payload_bytes(), 0));
  const HostTransport& arq = *fabric.host_transport();

  std::int64_t k = -1;  // the epoch that sends, and loses, the packet
  while (fabric.data_channel()->classified() == 0) {
    ASSERT_LT(++k, 20) << "the packet never left";
    fabric.run_until(timing.epoch_start(k + 1));
  }
  ASSERT_EQ(fabric.data_channel()->dropped(), 1);
  ASSERT_EQ(fabric.match_slots_used(), 1) << "the packet rode no match";
  EXPECT_EQ(arq.rto_fires(), 1) << "the RTO did not fire in epoch " << k;
  EXPECT_GT(arq.retx_backlog_bytes(), 0) << "no retransmission queued";
  EXPECT_EQ(arq.retransmitted_bytes(), 0)
      << "a drained match served a mid-phase retransmission";

  fabric.run_until(timing.epoch_start(k + 2));
  EXPECT_EQ(arq.retransmitted_bytes(), timing.scheduled_payload_bytes())
      << "epoch " << k + 1 << " did not serve the retransmission";
}

TEST(ScheduledPaths, SourceWithSeveralMatchesToOneDestination) {
  // One backlogged pair on a parallel fabric: the source matches the
  // destination on several planes, so packet j rides slot j / m on member
  // j % m. The backlog outlasts the run, so more matches than epochs means
  // some epoch held two or more.
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.num_tors = 4;
  cfg.ports_per_tor = 4;
  std::vector<Flow> flows;
  for (int i = 0; i < 40; ++i) {
    flows.push_back(make_flow(i, 0, 1, 1'000 + 9'001 * i, 150 * i));
  }
  const Nanos duration = 100'000;
  const Outcome drain = run(cfg, flows, duration, false);
  const Outcome walk = run(cfg, flows, duration, true);
  EXPECT_GT(drain.total_matches, drain.epochs)
      << "the only pair never held two matches in one epoch";
  EXPECT_GT(drain.drain_epochs, 0);
  expect_same(drain, walk, "several matches per pair");
}

TEST(ScheduledPaths, ZeroScheduledSlotsRunTheWalk) {
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  cfg.epoch.scheduled_slots = 0;
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.3, Rng(5));
  const std::vector<Flow> flows = gen.generate(0, 60'000);
  const Outcome drain = run(cfg, flows, 80'000, false);
  const Outcome walk = run(cfg, flows, 80'000, true);
  EXPECT_EQ(drain.drain_epochs, 0);
  expect_same(drain, walk, "zero scheduled slots");
}

TEST(ScheduledPaths, EpochsSwitchPathsAroundALinkFailure) {
  // While the link is down (and while its toggles are pending within an
  // epoch) the fabric walks slot by slot; before and after, it drains.
  NetworkConfig cfg;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 4;
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.6, Rng(11));
  const std::vector<Flow> flows = gen.generate(0, 120'000);
  const std::vector<LinkFlap> flaps = {{30'000, 55'000}, {80'003, 80'500}};
  const Outcome drain = run(cfg, flows, 140'000, false, flaps);
  const Outcome walk = run(cfg, flows, 140'000, true, flaps);
  EXPECT_GT(drain.drain_epochs, 0);
  EXPECT_LT(drain.drain_epochs, drain.epochs);
  expect_same(drain, walk, "link failure");
}

// The drain books goodput once per run of slots whose arrivals share a
// goodput bucket (measure-interval side and window), splitting a run only
// where it crosses a bucket edge. The cases below put those edges inside a
// scheduled phase on purpose. Scheduled slots are 90 ns, so a 1 us window
// edge falls inside every 2.7 us phase.
constexpr Nanos kShortWindowNs = 1'000;

/// A parallel fabric with PIAS off, so each flow is one queue segment and
/// one flow drains as one run per phase.
NetworkConfig bucket_config() {
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.num_tors = 4;
  cfg.ports_per_tor = 4;
  cfg.pias.enabled = false;
  return cfg;
}

/// Back-to-back flows from 0 to 1 at t = 0, sized k full payloads plus a
/// short last packet of varying length, so runs end mid-slot all over the
/// phase.
std::vector<Flow> short_tail_flows(const NetworkConfig& cfg, int count) {
  const Bytes payload = EpochTiming(cfg).scheduled_payload_bytes();
  std::vector<Flow> flows;
  for (int i = 0; i < count; ++i) {
    const Bytes size = (2 + i % 9) * payload + 1 + (i * 389) % (payload - 1);
    flows.push_back(make_flow(i, 0, 1, size, 0));
  }
  return flows;
}

TEST(ScheduledPaths, OneLongRunCrossesWindowEdgesOnSeveralMembers) {
  // One flow keeps pair (0, 1) backlogged for the whole run: each phase
  // drains it as a single run over every member, across two or three
  // window edges.
  const NetworkConfig cfg = bucket_config();
  const std::vector<Flow> flows = {make_flow(0, 0, 1, 100'000'000, 0)};
  const Nanos duration = 100'000;
  const Meter meter{kShortWindowNs, 0, duration};
  const Outcome drain = run(cfg, flows, duration, false, {}, meter);
  const Outcome walk = run(cfg, flows, duration, true, {}, meter);
  EXPECT_GT(drain.total_matches, drain.epochs)
      << "the pair never held two matches in one epoch";
  EXPECT_EQ(drain.drain_epochs, drain.epochs);
  EXPECT_EQ(drain.samples.size(), 0u) << "the flow finished: no backlog";
  expect_same(drain, walk, "one long run across window edges");
}

TEST(ScheduledPaths, MeasureIntervalEdgesInsideAPhase) {
  // The measure interval opens, then closes, at the arrival of slot 13 of
  // a phase in which the pair is still backlogged.
  const NetworkConfig cfg = bucket_config();
  const EpochTiming timing(cfg);
  const std::vector<Flow> flows = short_tail_flows(cfg, 1'000);
  const Nanos duration = timing.epoch_start(40);
  const auto arrival = [&](std::int64_t epoch, int slot) {
    return timing.scheduled_slot_end(epoch, slot) + cfg.propagation_delay_ns;
  };
  const Meter opens{kWindowNs, arrival(12, 13), duration};
  Outcome drain = run(cfg, flows, duration, false, {}, opens);
  Outcome walk = run(cfg, flows, duration, true, {}, opens);
  EXPECT_EQ(drain.drain_epochs, drain.epochs);
  expect_same(drain, walk, "measure_from inside a phase");

  const Meter closes{kWindowNs, 0, arrival(25, 13)};
  drain = run(cfg, flows, duration, false, {}, closes);
  walk = run(cfg, flows, duration, true, {}, closes);
  EXPECT_GT(drain.backlog, 0) << "the pair drained before the interval shut";
  expect_same(drain, walk, "measure_to inside a phase");
}

TEST(ScheduledPaths, ShortLastPacketsAcrossWindowEdges) {
  // Runs of several packets that end in a short one, on several members,
  // with window edges inside every phase: a run that crosses an edge books
  // its full packets before the edge and the rest after it.
  const NetworkConfig cfg = bucket_config();
  const std::vector<Flow> flows = short_tail_flows(cfg, 600);
  const Nanos duration = 150'000;
  const Meter meter{kShortWindowNs, duration / 4, duration};
  const Outcome drain = run(cfg, flows, duration, false, {}, meter);
  const Outcome walk = run(cfg, flows, duration, true, {}, meter);
  EXPECT_GT(drain.total_matches, drain.epochs);
  EXPECT_GT(drain.samples.size(), 0u);
  expect_same(drain, walk, "short last packets across window edges");
}

TEST(ScheduledPaths, RunsEndingExactlyOnBucketEdges) {
  // Every flow is one full packet, so every run ends on a packet boundary
  // and every bucket edge a backlogged phase crosses has a run ending
  // exactly on it; the measure interval adds one more edge mid-phase.
  const NetworkConfig cfg = bucket_config();
  const EpochTiming timing(cfg);
  const Bytes payload = timing.scheduled_payload_bytes();
  std::vector<Flow> flows;
  for (int i = 0; i < 6'000; ++i) {
    flows.push_back(make_flow(i, 0, 1, payload, 0));
  }
  const Nanos duration = timing.epoch_start(30);
  const Meter meter{
      kShortWindowNs,
      timing.scheduled_slot_end(10, 7) + cfg.propagation_delay_ns, duration};
  const Outcome drain = run(cfg, flows, duration, false, {}, meter);
  const Outcome walk = run(cfg, flows, duration, true, {}, meter);
  EXPECT_GT(drain.backlog, 0) << "the pair ran dry: no edge was crossed";
  expect_same(drain, walk, "runs ending on bucket edges");
}

}  // namespace
}  // namespace negotiator
