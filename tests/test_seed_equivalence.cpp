// Bit-identity contract for the epoch engine: every scheduler variant on
// every topology must produce byte-for-byte identical simulation output for
// a fixed seed, before and after hot-path refactors (the same contract the
// PR 2/3 engine work was held to).
//
// Each scenario runs a small fabric on a deterministic workload and hashes
// the *complete* observable output — every FCT sample (flow id, size,
// arrival, fct, group) plus the end-of-run summary metrics — into one
// FNV-1a fingerprint (result_fingerprint, engine/runner.h). The golden
// values below were captured from the pre-sparse-pipeline engine (PR 3
// state); any diff means simulated behaviour changed, not just
// performance.
//
// To regenerate after an *intentional* behaviour change:
//   NEG_PRINT_GOLDENS=1 ./test_seed_equivalence --gtest_filter='*Golden*'
// and paste the printed table over kGoldens.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "engine/fault_scenario.h"
#include "engine/runner.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

struct Scenario {
  const char* name;
  TopologyKind topo;
  SchedulerKind sched;
  int num_tors;
  int ports;
  double load;
  std::uint64_t seed;
  bool failures{false};   // mid-run link fail/repair (dense fallback path)
  bool host_plane{false};
  bool piggyback{true};
  bool rotate{true};
  bool incast_burst{false};  // out-of-order arrivals (heap/bucket tier)
  int iterations{1};
  const char* chaos{nullptr};  // canned fault scenario (see canned_chaos)
  // Lossy control plane (core/control_channel.h): drop probability applied
  // to all three message classes, plus a fixed delay/duplication mix (see
  // run_fingerprint). Zero leaves the channel unconstructed, so the 38
  // legacy goldens above draw exactly the seed engine's RNG sequence.
  double control_drop{0.0};
  bool control_fallback{false};  // per-slot oblivious fallback on/off
  // Lossy data plane (core/data_channel.h): chunk-drop probability applied
  // to all three hop classes plus a fixed corruption rate, with or without
  // the end-host ARQ (tor/host_transport.h). Zero leaves both the channel
  // and the transport unconstructed — every golden above stays on the seed
  // engine's exact RNG and event sequence.
  double data_drop{0.0};
  bool data_arq{false};
};

constexpr Nanos kDuration = 400'000;  // 0.4 ms simulated

/// Canned fault scenarios for the chaos goldens. Each is a fixed spec —
/// all randomness comes from the Rng handed to install(), so the resulting
/// timeline (and thus the fingerprint) is pinned by the scenario seed.
FaultScenario canned_chaos(const char* kind) {
  FaultScenario fs;
  const std::string k = kind;
  if (k == "storm") {
    StormSpec s;
    s.zone = StormSpec::Zone::kTorGroup;
    s.group_size = 4;
    s.bursts = 2;
    s.first_burst_at = 60'000;
    s.burst_interval = 140'000;
    s.burst_window = 20'000;
    s.outage_ns = 60'000;
    s.repair_stagger = 20'000;
    fs.storm(s);
  } else if (k == "plane-storm") {
    StormSpec s;
    s.zone = StormSpec::Zone::kPortPlane;
    s.bursts = 1;
    s.first_burst_at = 80'000;
    s.burst_window = 10'000;
    s.outage_ns = 80'000;
    s.repair_stagger = 10'000;
    fs.storm(s);
  } else if (k == "flap") {
    FlapSpec f;
    f.link_fraction = 0.08;
    f.mtbf_ns = 60'000;
    f.mttr_ns = 12'000;
    f.start_ns = 40'000;
    f.end_ns = 300'000;
    fs.flapping(f);
  } else if (k == "churn") {
    ChurnSpec c;
    c.mode = ChurnSpec::Mode::kRequeue;
    c.events = 3;
    c.first_leave_at = 50'000;
    c.interval = 90'000;
    c.downtime_ns = 40'000;
    fs.host_churn(c);
  } else if (k == "churn-abort") {
    ChurnSpec c;
    c.mode = ChurnSpec::Mode::kAbort;
    c.events = 2;
    c.first_leave_at = 60'000;
    c.interval = 120'000;
    c.downtime_ns = 50'000;
    fs.host_churn(c);
  } else if (k == "control-brownout") {
    // A ToR-group storm with a control brownout covering the same window:
    // the control plane browns out exactly while the zone is dark, the
    // worst case for re-negotiation (§3.5).
    StormSpec s;
    s.zone = StormSpec::Zone::kTorGroup;
    s.group_size = 4;
    s.bursts = 1;
    s.first_burst_at = 80'000;
    s.burst_window = 10'000;
    s.outage_ns = 60'000;
    s.repair_stagger = 10'000;
    ControlBrownoutSpec b;
    b.windows = 2;
    b.first_at = 80'000;
    b.interval = 120'000;
    b.duration_ns = 50'000;
    b.start_jitter = 10'000;
    b.drop = 0.8;
    fs.storm(s).control_brownout(b);
  } else if (k == "data-brownout") {
    // The combined worst case from the chaos sweep: a ToR-group storm, a
    // control brownout, and a data-loss window all covering the same
    // span — dropped chunks must be re-negotiated over a browned-out
    // control plane while part of the zone is dark.
    StormSpec s;
    s.zone = StormSpec::Zone::kTorGroup;
    s.group_size = 4;
    s.bursts = 1;
    s.first_burst_at = 80'000;
    s.burst_window = 10'000;
    s.outage_ns = 50'000;
    s.repair_stagger = 10'000;
    ControlBrownoutSpec b;
    b.windows = 1;
    b.first_at = 80'000;
    b.duration_ns = 50'000;
    b.start_jitter = 10'000;
    b.drop = 0.7;
    DataLossSpec d;
    d.windows = 2;
    d.first_at = 80'000;
    d.interval = 120'000;
    d.duration_ns = 40'000;
    d.start_jitter = 10'000;
    d.drop = 0.6;
    fs.storm(s).control_brownout(b).data_loss(d);
  } else if (k == "mix") {
    StormSpec s;
    s.zone = StormSpec::Zone::kTorGroup;
    s.group_size = 4;
    s.bursts = 1;
    s.first_burst_at = 70'000;
    s.burst_window = 15'000;
    s.outage_ns = 50'000;
    s.repair_stagger = 15'000;
    FlapSpec f;
    f.link_fraction = 0.04;
    f.mtbf_ns = 80'000;
    f.mttr_ns = 10'000;
    f.start_ns = 30'000;
    f.end_ns = 260'000;
    ChurnSpec c;
    c.mode = ChurnSpec::Mode::kRequeue;
    c.events = 1;
    c.first_leave_at = 150'000;
    c.downtime_ns = 60'000;
    fs.storm(s).flapping(f).host_churn(c);
  } else {
    ADD_FAILURE() << "unknown canned chaos scenario: " << kind;
  }
  return fs;
}

std::uint64_t run_fingerprint(const Scenario& sc) {
  NetworkConfig cfg;
  cfg.topology = sc.topo;
  cfg.scheduler = sc.sched;
  cfg.num_tors = sc.num_tors;
  cfg.ports_per_tor = sc.ports;
  cfg.seed = sc.seed;
  cfg.piggyback = sc.piggyback;
  cfg.rotate_predefined_rule = sc.rotate;
  cfg.host_plane.enabled = sc.host_plane;
  cfg.variant.iterations = sc.iterations;
  if (sc.control_drop > 0.0) {
    cfg.control_fault.enabled = true;
    cfg.control_fault.request_drop = sc.control_drop;
    cfg.control_fault.grant_drop = sc.control_drop;
    cfg.control_fault.accept_drop = sc.control_drop;
    cfg.control_fault.delay_prob = 0.1;
    cfg.control_fault.max_delay_epochs = 2;
    cfg.control_fault.duplicate_prob = 0.05;
    cfg.control_fault.fallback = sc.control_fallback;
    // Pin the matching invariants on every lossy golden, in Release too.
    cfg.validate_matching = true;
  }
  if (sc.data_drop > 0.0) {
    cfg.data_fault.enabled = true;
    cfg.data_fault.first_hop_drop = sc.data_drop;
    cfg.data_fault.relay_drop = sc.data_drop;
    cfg.data_fault.second_hop_drop = sc.data_drop;
    cfg.data_fault.corrupt_prob = 0.01;
    cfg.data_fault.arq = sc.data_arq;
    cfg.validate_matching = true;
  }
  if (sc.host_plane) {
    // Small buffers so the pause/resume watermarks actually trip.
    cfg.host_plane.rx_buffer_capacity = 64'000;
    cfg.host_plane.rx_high_watermark = 48'000;
    cfg.host_plane.rx_low_watermark = 16'000;
  }

  Runner runner(cfg);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), sc.load, Rng(sc.seed));
  std::vector<Flow> flows = gen.generate(0, kDuration);
  if (sc.chaos != nullptr) {
    Rng chaos_rng(sc.seed * 7919 + 0x5eed);
    const ScenarioTimeline timeline =
        canned_chaos(sc.chaos).install(runner.fabric(), chaos_rng);
    FaultScenario::rewrite_flows(flows, timeline);
  }
  runner.add_flows(flows);
  if (sc.incast_burst) {
    // A second batch with earlier timestamps than the tail of the first:
    // these arrivals are out of order for the pre-sorted stream tier.
    std::vector<Flow> burst;
    for (int i = 0; i < 40; ++i) {
      Flow f;
      f.id = 1'000'000 + i;
      f.src = static_cast<TorId>((i + 1) % cfg.num_tors);
      f.dst = static_cast<TorId>(i % 2);
      if (f.src == f.dst) f.src = static_cast<TorId>(f.dst + 1);
      f.size = 20'000 + 512 * i;
      f.arrival = 30'000 + 700 * i;
      f.group = 7;
      burst.push_back(f);
    }
    runner.add_flows(burst);
  }
  if (sc.failures) {
    FabricSim& fab = runner.fabric();
    fab.schedule_link_event(40'000, 1, 0, LinkDirection::kEgress, true);
    fab.schedule_link_event(60'000, 2, 1, LinkDirection::kIngress, true);
    fab.schedule_link_event(180'000, 1, 0, LinkDirection::kEgress, false);
    fab.schedule_link_event(240'000, 2, 1, LinkDirection::kIngress, false);
  }

  const RunResult r = runner.run(kDuration, kDuration / 4);
  return result_fingerprint(runner.fabric(), r);
}

const Scenario kScenarios[] = {
    // Base algorithm, both topologies (N=16, S=8: the parallel schedule has
    // a duplicate connection opportunity per epoch — 2*8 slots > 15 pairs).
    {"negotiator/parallel", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 11},
    {"negotiator/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 11},
    {"negotiator/parallel/12x4", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 12, 4, 0.3, 12},
    {"negotiator/thin-clos/12x4", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator, 12, 4, 0.3, 12},
    // Failure handling: losses, fault detection, dense-slot fallback.
    {"negotiator/parallel/failures", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 13, true},
    {"negotiator/thin-clos/failures", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 13, true},
    // Host plane pause/resume; piggyback off; static predefined rule.
    {"negotiator/parallel/hostplane", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.9, 14, false, true},
    {"negotiator/parallel/no-piggyback", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 15, false, false, false},
    {"negotiator/parallel/no-rotate", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 16, false, false, true, false},
    // Out-of-order arrivals exercise the non-stream event tiers.
    {"negotiator/parallel/incast", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.5, 17, false, false, true, true,
     true},
    {"oblivious/thin-clos/incast", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.5, 17, false, false, true, true,
     true},
    // The appendix variants.
    {"iterative/parallel", TopologyKind::kParallel,
     SchedulerKind::kNegotiatorIterative, 16, 8, 0.6, 21, false, false, true,
     true, false, 2},
    {"iterative/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kNegotiatorIterative, 16, 8, 0.6, 21, false, false, true,
     true, false, 2},
    {"informative-size/parallel", TopologyKind::kParallel,
     SchedulerKind::kNegotiatorInformativeSize, 16, 8, 0.6, 22},
    {"informative-size/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kNegotiatorInformativeSize, 16, 8, 0.6, 22},
    {"informative-hol/parallel", TopologyKind::kParallel,
     SchedulerKind::kNegotiatorInformativeHol, 16, 8, 0.6, 23},
    {"informative-hol/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kNegotiatorInformativeHol, 16, 8, 0.6, 23},
    {"stateful/parallel", TopologyKind::kParallel,
     SchedulerKind::kNegotiatorStateful, 16, 8, 0.6, 24},
    {"stateful/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kNegotiatorStateful, 16, 8, 0.6, 24},
    {"selective-relay/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kNegotiatorSelectiveRelay, 16, 8, 0.9, 25},
    {"projector/parallel", TopologyKind::kParallel,
     SchedulerKind::kProjector, 16, 8, 0.6, 26},
    {"projector/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kProjector, 16, 8, 0.6, 26},
    {"centralized/parallel", TopologyKind::kParallel,
     SchedulerKind::kCentralized, 16, 8, 0.6, 27},
    {"centralized/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kCentralized, 16, 8, 0.6, 27},
    // Oblivious baseline, both topologies, two loads.
    {"oblivious/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.6, 28},
    {"oblivious/parallel", TopologyKind::kParallel,
     SchedulerKind::kOblivious, 16, 8, 0.6, 28},
    {"oblivious/thin-clos/light", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.1, 29},
    {"oblivious/thin-clos/failures", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.6, 30, true},
    // Fault-scenario engine goldens: storms, flapping, churn, and a mixed
    // timeline on each fabric family (engine/fault_scenario.h).
    {"negotiator/parallel/storm", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 41, false, false, true, true,
     false, 1, "storm"},
    {"negotiator/thin-clos/plane-storm", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 42, false, false, true, true,
     false, 1, "plane-storm"},
    {"negotiator/parallel/flap", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 43, false, false, true, true,
     false, 1, "flap"},
    {"negotiator/parallel/churn", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 44, false, false, true, true,
     false, 1, "churn"},
    {"negotiator/thin-clos/mix", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 45, false, false, true, true,
     false, 1, "mix"},
    {"oblivious/thin-clos/storm", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.6, 46, false, false, true, true,
     false, 1, "storm"},
    {"oblivious/parallel/plane-storm", TopologyKind::kParallel,
     SchedulerKind::kOblivious, 16, 8, 0.6, 47, false, false, true, true,
     false, 1, "plane-storm"},
    {"oblivious/thin-clos/flap", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.6, 48, false, false, true, true,
     false, 1, "flap"},
    {"oblivious/thin-clos/churn-abort", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.6, 49, false, false, true, true,
     false, 1, "churn-abort"},
    {"oblivious/thin-clos/mix", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.6, 50, false, false, true, true,
     false, 1, "mix"},
    // Lossy control plane (core/control_channel.h): seeded drop/delay/dup
    // on the REQUEST/GRANT/ACCEPT exchange, with and without the per-slot
    // oblivious fallback, plus a brownout correlated with a zone storm.
    {"negotiator/parallel/lossy", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 61, false, false, true, true,
     false, 1, nullptr, 0.2},
    {"negotiator/thin-clos/lossy", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 62, false, false, true, true,
     false, 1, nullptr, 0.2},
    {"negotiator/parallel/lossy-fallback", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 63, false, false, true, true,
     false, 1, nullptr, 0.3, true},
    {"informative-hol/thin-clos/lossy", TopologyKind::kThinClos,
     SchedulerKind::kNegotiatorInformativeHol, 16, 8, 0.6, 64, false, false,
     true, true, false, 1, nullptr, 0.2},
    {"selective-relay/thin-clos/lossy-fallback", TopologyKind::kThinClos,
     SchedulerKind::kNegotiatorSelectiveRelay, 16, 8, 0.9, 65, false, false,
     true, true, false, 1, nullptr, 0.2, true},
    {"negotiator/parallel/brownout-storm", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 66, false, false, true, true,
     false, 1, "control-brownout", 0.1, true},
    // Lossy data plane (core/data_channel.h + tor/host_transport.h):
    // drop-only runs pin the raw-loss measurement mode (no ARQ — dropped
    // bytes are terminal), arq runs pin the full selective-repeat recovery
    // timeline, and the data-brownout golden pins the combined-fault
    // timeline (storm + control brownout + data-loss window at once).
    {"negotiator/parallel/data-loss", TopologyKind::kParallel,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 71, false, false, true, true,
     false, 1, nullptr, 0.0, false, 0.05, false},
    {"negotiator/thin-clos/data-loss-arq", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 72, false, false, true, true,
     false, 1, nullptr, 0.0, false, 0.05, true},
    {"oblivious/thin-clos/data-loss", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.6, 73, false, false, true, true,
     false, 1, nullptr, 0.0, false, 0.05, false},
    {"oblivious/thin-clos/data-loss-arq", TopologyKind::kThinClos,
     SchedulerKind::kOblivious, 16, 8, 0.6, 74, false, false, true, true,
     false, 1, nullptr, 0.0, false, 0.05, true},
    {"oblivious/parallel/data-loss-arq", TopologyKind::kParallel,
     SchedulerKind::kOblivious, 16, 8, 0.6, 75, false, false, true, true,
     false, 1, nullptr, 0.0, false, 0.05, true},
    {"selective-relay/thin-clos/data-loss-arq", TopologyKind::kThinClos,
     SchedulerKind::kNegotiatorSelectiveRelay, 16, 8, 0.9, 76, false, false,
     true, true, false, 1, nullptr, 0.0, false, 0.05, true},
    {"negotiator/thin-clos/data-brownout", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator, 16, 8, 0.6, 77, false, false, true, true,
     false, 1, "data-brownout", 0.1, true, 0.05, true},
};

// Golden fingerprints captured from the seed engine (pre-sparse pipeline).
// Index-aligned with kScenarios. Zero means "not yet captured".
struct Golden {
  const char* name;
  std::uint64_t fingerprint;
};

const Golden kGoldens[] = {
    {"negotiator/parallel", 0xe34a2159b5098a59ULL},
    {"negotiator/thin-clos", 0x540736afe4fdb863ULL},
    {"negotiator/parallel/12x4", 0xa9a9d92033c13f1dULL},
    {"negotiator/thin-clos/12x4", 0x4a3414eb71f1c09ULL},
    {"negotiator/parallel/failures", 0x7323202f2b6adbecULL},
    {"negotiator/thin-clos/failures", 0x4275f938fe8dee47ULL},
    {"negotiator/parallel/hostplane", 0xbdf68b2fad161e6ULL},
    {"negotiator/parallel/no-piggyback", 0x49ac8974d9c27c72ULL},
    {"negotiator/parallel/no-rotate", 0x96f6d16de192236aULL},
    {"negotiator/parallel/incast", 0x7ddea6cbf47e3210ULL},
    {"oblivious/thin-clos/incast", 0xfc84ba908b7046b2ULL},
    {"iterative/parallel", 0x6320c681c67baee5ULL},
    {"iterative/thin-clos", 0x4147b13a7da8a490ULL},
    {"informative-size/parallel", 0x15ed3c3fa584ca4aULL},
    {"informative-size/thin-clos", 0xd0bcf6a961b196aULL},
    {"informative-hol/parallel", 0x5ae48153e6c3437fULL},
    {"informative-hol/thin-clos", 0xb4f7eb872e36ac3bULL},
    {"stateful/parallel", 0xafca59c36da4a358ULL},
    {"stateful/thin-clos", 0xd61609871c73067dULL},
    {"selective-relay/thin-clos", 0x725961ad955fc3c3ULL},
    {"projector/parallel", 0xb99f37d2dc0f10dULL},
    {"projector/thin-clos", 0xed9edfa73e0f4f1cULL},
    {"centralized/parallel", 0x78edfed1d81d8bd4ULL},
    {"centralized/thin-clos", 0x9b887c1c8ae24e7dULL},
    {"oblivious/thin-clos", 0x291b23611bd28451ULL},
    {"oblivious/parallel", 0xf834a14746d25cb0ULL},
    {"oblivious/thin-clos/light", 0x98c0ad814c105a9eULL},
    {"oblivious/thin-clos/failures", 0xb8ed02f1685e16b2ULL},
    {"negotiator/parallel/storm", 0xe7befe43fa75e06aULL},
    {"negotiator/thin-clos/plane-storm", 0x8b21ba53c98cf9a3ULL},
    {"negotiator/parallel/flap", 0x8c64ee3c291697fdULL},
    {"negotiator/parallel/churn", 0xb3491595eb54d6b6ULL},
    {"negotiator/thin-clos/mix", 0xfa36daeb71fab5ULL},
    {"oblivious/thin-clos/storm", 0x4eeb5618b46bc467ULL},
    {"oblivious/parallel/plane-storm", 0xbd4437448fa10219ULL},
    {"oblivious/thin-clos/flap", 0x36c8c7a14caaac12ULL},
    {"oblivious/thin-clos/churn-abort", 0x1b4022ea527a1a7fULL},
    {"oblivious/thin-clos/mix", 0xaabca0dc108090aULL},
    {"negotiator/parallel/lossy", 0x85d9b21067a4b048ULL},
    {"negotiator/thin-clos/lossy", 0x48190e0eed3c6dcULL},
    {"negotiator/parallel/lossy-fallback", 0xbfa2ff963c567363ULL},
    {"informative-hol/thin-clos/lossy", 0xdad2310a0b4c5c50ULL},
    {"selective-relay/thin-clos/lossy-fallback", 0x40d72c6d17078172ULL},
    {"negotiator/parallel/brownout-storm", 0x910a2ba6b0f100c0ULL},
    {"negotiator/parallel/data-loss", 0x5679576798ac6210ULL},
    {"negotiator/thin-clos/data-loss-arq", 0x5c9166f0bc4e299aULL},
    {"oblivious/thin-clos/data-loss", 0x6376993453458f8bULL},
    {"oblivious/thin-clos/data-loss-arq", 0xe84880666f4b34dbULL},
    {"oblivious/parallel/data-loss-arq", 0xd87ed1bf8baf861ULL},
    {"selective-relay/thin-clos/data-loss-arq", 0x9d983938ac8c1422ULL},
    {"negotiator/thin-clos/data-brownout", 0x69f9d5979467b9e6ULL},
};

static_assert(std::size(kScenarios) == std::size(kGoldens),
              "goldens must stay index-aligned with scenarios");

class SeedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SeedEquivalence, GoldenFingerprint) {
  const std::size_t i = GetParam();
  const Scenario& sc = kScenarios[i];
  ASSERT_STREQ(sc.name, kGoldens[i].name) << "scenario/golden misalignment";
  const std::uint64_t got = run_fingerprint(sc);
  if (std::getenv("NEG_PRINT_GOLDENS") != nullptr) {
    std::printf("    {\"%s\", 0x%llxULL},\n", sc.name,
                static_cast<unsigned long long>(got));
    return;
  }
  EXPECT_EQ(got, kGoldens[i].fingerprint)
      << sc.name << ": simulation output diverged from the seed engine";
}

// Same seed, same scenario, two fresh runs in one process: guards against
// hidden global state leaking between runs (RNG, statics, caches).
TEST(SeedEquivalence, RepeatRunsAreIdentical) {
  const Scenario& sc = kScenarios[0];
  EXPECT_EQ(run_fingerprint(sc), run_fingerprint(sc));
  const Scenario& ob = kScenarios[24];
  EXPECT_EQ(run_fingerprint(ob), run_fingerprint(ob));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SeedEquivalence,
    ::testing::Range<std::size_t>(0, std::size(kScenarios)),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string n = kScenarios[info.param].name;
      for (char& c : n) {
        if (c == '/' || c == '-') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace negotiator
