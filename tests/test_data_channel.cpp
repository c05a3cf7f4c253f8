// Unit contract for the lossy data plane (core/data_channel.h): the
// per-chunk draw-order and loss-window semantics, bit-identity of a
// zero-rate channel with a channel-free build (both fabrics), per-hop-
// class independence, the channel's fate counters, the byte-conservation
// auditor's ledger across lossy runs without ARQ, and the delivery
// plane's counters on both fabrics.
// tests/test_host_transport.cpp covers the end-host ARQ layered on top.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "common/config.h"
#include "common/rng.h"
#include "core/data_channel.h"
#include "engine/conservation_auditor.h"
#include "engine/network.h"
#include "engine/runner.h"
#include "stats/resilience_recorder.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

constexpr Nanos kDuration = 200'000;

DataFaultConfig lossy_data(double drop, double corrupt = 0.0) {
  DataFaultConfig f;
  f.enabled = true;
  f.first_hop_drop = drop;
  f.relay_drop = drop;
  f.second_hop_drop = drop;
  f.corrupt_prob = corrupt;
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

NetworkConfig base_config(std::uint64_t seed,
                          SchedulerKind kind = SchedulerKind::kNegotiator) {
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.scheduler = kind;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 8;
  cfg.seed = seed;
  cfg.validate_matching = true;
  return cfg;
}

// A channel with every probability at zero classifies every chunk as
// delivered, and its draws come from a private salted stream — so the
// simulation must be byte-identical to one with the model disabled.
TEST(DataChannel, ZeroRateChannelIsBitIdenticalToDisabled) {
  for (const SchedulerKind kind :
       {SchedulerKind::kNegotiator, SchedulerKind::kOblivious}) {
    NetworkConfig off = base_config(81, kind);
    NetworkConfig on = base_config(81, kind);
    on.data_fault.enabled = true;  // all rates zero
    EXPECT_EQ(run_fingerprint(off), run_fingerprint(on))
        << to_string(kind);
  }
}

TEST(DataChannel, LossyRunsAreDeterministic) {
  NetworkConfig cfg = base_config(82);
  cfg.data_fault = lossy_data(0.1, 0.02);
  const std::uint64_t a = run_fingerprint(cfg);
  const std::uint64_t b = run_fingerprint(cfg);
  EXPECT_EQ(a, b);
  cfg.seed = 83;
  EXPECT_NE(a, run_fingerprint(cfg)) << "seed does not reach the channel";
}

// Draw-order contract, leg 2: a corrupt-only channel (drop = 0,
// corrupt_prob = 1) discards every chunk via the receiver checksum and
// never counts a drop.
TEST(DataChannel, CorruptOnlyChannelDiscardsByChecksum) {
  DataFaultConfig f = lossy_data(0.0, 1.0);
  DataChannel channel(f, make_salted_stream(5, kDataChannelSeedSalt));
  channel.begin_epoch(0);
  for (int i = 0; i < 100; ++i) {
    const DataChannel::Fate fate =
        channel.classify(static_cast<DataHopClass>(i % 3), 1'000);
    EXPECT_FALSE(fate.deliver);
    EXPECT_TRUE(fate.corrupted);
  }
  EXPECT_EQ(channel.dropped(), 0);
  EXPECT_EQ(channel.corrupted(), 100);
  EXPECT_EQ(channel.classified(), 100);
  EXPECT_EQ(channel.corrupted_bytes(), 100'000);
  EXPECT_EQ(channel.dropped_bytes(), 0);
}

TEST(DataChannel, LossWindowRaisesTheFloorOnlyInsideTheWindow) {
  DataFaultConfig f;
  f.enabled = true;  // all base rates zero
  DataChannel channel(f, make_salted_stream(11, kDataChannelSeedSalt));
  channel.add_loss_window(1'000, 2'000, 1.0);
  channel.add_loss_window(1'500, 1'600, 0.5);  // overlapping; max wins

  channel.begin_epoch(500);
  EXPECT_EQ(channel.loss_floor(), 0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(channel.classify(DataHopClass::kFirstHop, 100).deliver);
  }
  channel.begin_epoch(1'500);
  EXPECT_EQ(channel.loss_floor(), 1.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(channel.classify(DataHopClass::kRelay, 100).deliver);
  }
  channel.begin_epoch(2'000);  // [start, end): the end epoch is healthy
  EXPECT_EQ(channel.loss_floor(), 0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(channel.classify(DataHopClass::kSecondHop, 100).deliver);
  }
  EXPECT_EQ(channel.dropped(), 50);
  EXPECT_EQ(channel.classified(), 150);
}

// Each hop class carries its own base rate: a first-hop-only blackout
// must never touch relay or second-hop chunks.
TEST(DataChannel, HopClassRatesAreIndependent) {
  DataFaultConfig f;
  f.enabled = true;
  f.first_hop_drop = 1.0;
  DataChannel channel(f, make_salted_stream(17, kDataChannelSeedSalt));
  channel.begin_epoch(0);
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(channel.classify(DataHopClass::kFirstHop, 100).deliver);
    EXPECT_TRUE(channel.classify(DataHopClass::kRelay, 100).deliver);
    EXPECT_TRUE(channel.classify(DataHopClass::kSecondHop, 100).deliver);
  }
  EXPECT_EQ(channel.dropped(), 40);
  EXPECT_EQ(channel.classified(), 120);
  EXPECT_EQ(channel.dropped_bytes(), 4'000);
}

// The channel is the only counter of its fates: each classified chunk is
// counted once, as the fate classify() returned, with its bytes.
TEST(DataChannel, CountsEachFateOnce) {
  DataFaultConfig f = lossy_data(0.4, 0.2);
  DataChannel channel(f, make_salted_stream(13, kDataChannelSeedSalt));
  channel.begin_epoch(0);
  std::int64_t dropped = 0, corrupted = 0;
  for (int i = 0; i < 3'000; ++i) {
    const DataChannel::Fate fate =
        channel.classify(static_cast<DataHopClass>(i % 3), 500);
    if (fate.corrupted) {
      ++corrupted;
    } else if (!fate.deliver) {
      ++dropped;
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(corrupted, 0);
  EXPECT_EQ(channel.dropped(), dropped);
  EXPECT_EQ(channel.corrupted(), corrupted);
  EXPECT_EQ(channel.dropped_bytes(), 500 * dropped);
  EXPECT_EQ(channel.corrupted_bytes(), 500 * corrupted);
}

// Without ARQ, dropped bytes are gone for good: the conservation auditor
// must still balance the ledger (injected = stranded + in flight +
// delivered + dropped + corrupted) at every epoch boundary (every rotor
// cycle on the oblivious fabric). The auditor is armed because
// validate_matching is set.
TEST(DataChannel, ConservationLedgerBalancesWithoutArq) {
  const struct {
    SchedulerKind kind;
    std::uint64_t seed;
    double corrupt;
  } cases[] = {{SchedulerKind::kNegotiator, 84, 0.01},
               {SchedulerKind::kOblivious, 85, 0.0}};
  for (const auto& c : cases) {
    SCOPED_TRACE(to_string(c.kind));
    NetworkConfig cfg = base_config(c.seed, c.kind);
    cfg.data_fault = lossy_data(0.05, c.corrupt);
    Runner runner(cfg);
    WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                          cfg.host_rate(), 0.6, Rng(cfg.seed));
    runner.add_flows(gen.generate(0, kDuration));
    runner.run(kDuration, kDuration / 4);
    const FabricSim& fabric = runner.fabric();
    ASSERT_NE(fabric.data_channel(), nullptr);
    ASSERT_NE(fabric.conservation_auditor(), nullptr);
    EXPECT_EQ(fabric.host_transport(), nullptr) << "ARQ off -> no transport";
    EXPECT_GT(fabric.data_channel()->dropped(), 0);
    EXPECT_GT(fabric.conservation_auditor()->checks(), 0);
  }
}

// Loss is loss: at a fixed seed and horizon, a lossy run can never
// complete more flows than the lossless twin, and the channel must count
// the dropped bytes.
TEST(DataChannel, DropsStrictlyHurtWithoutArq) {
  Runner clean(base_config(86));
  const RunResult clean_result = run_workload(clean);

  NetworkConfig lossy_cfg = base_config(86);
  lossy_cfg.data_fault = lossy_data(0.3);
  Runner runner(lossy_cfg);
  const RunResult lossy_result = run_workload(runner);
  const DataChannel* channel = runner.fabric().data_channel();

  EXPECT_LT(lossy_result.completed, clean_result.completed);
  ASSERT_NE(channel, nullptr);
  EXPECT_GT(channel->dropped(), 0);
  EXPECT_GT(channel->dropped_bytes(), 0);
  EXPECT_EQ(runner.fabric().host_transport(), nullptr)
      << "no ARQ, no retransmissions";
}

// The end-host delivery path's observables that no golden hashes: the
// delivery counters, the resilience counters (schema-v2 JSON), the
// channel's drop/corrupt counts, the transport's ARQ counters and the
// auditor's check count.
// Each case pins a hash of all of them, so a refactor of the path shows
// up here even where the FCT fingerprints stay put.
struct PlaneCase {
  const char* name;
  SchedulerKind kind;
  bool arq;
  bool link_failures;
  bool host_plane;
  std::uint64_t expected;
};

/// The resilience counters as one schema-v2 JSON object: the recorder's
/// own counters, and the drop, retransmission and fallback counters read
/// from the components that own them (0 where a component is absent).
/// Field order and formats are fixed, so the pinned hashes below hold.
std::string resilience_json(const FabricSim& fab) {
  const ResilienceRecorder& rec = fab.resilience();
  const auto* neg = dynamic_cast<const NegotiatorFabric*>(&fab);
  const ControlChannel* ctl = neg ? neg->control_channel() : nullptr;
  const DataChannel* data = fab.data_channel();
  const HostTransport* arq = fab.host_transport();
  auto ll = [](std::int64_t v) { return static_cast<long long>(v); };
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\": 2, "
      "\"failures\": %lld, \"repairs\": %lld, \"exclusions\": %lld, "
      "\"inclusions\": %lld, \"exclusion_churn\": %lld, "
      "\"detection_ns\": {\"count\": %lld, \"mean\": %.1f, \"max\": %lld}, "
      "\"recovery_ns\": {\"count\": %lld, \"mean\": %.1f, \"max\": %lld}, "
      "\"blackholed_bytes\": %lld, \"degraded_delivered_bytes\": %lld, "
      "\"control_dropped\": %lld, \"control_delayed\": %lld, "
      "\"control_duplicated\": %lld, \"degraded_slots\": %lld, "
      "\"fallback_bytes\": %lld, \"control_grants\": %lld, "
      "\"control_accepts\": %lld, \"control_match_ratio\": %.4f, "
      "\"data_dropped\": %lld, \"data_corrupted\": %lld, "
      "\"data_dropped_bytes\": %lld, \"data_corrupted_bytes\": %lld, "
      "\"retransmitted_bytes\": %lld, \"spurious_retx\": %lld, "
      "\"rto_fires\": %lld, \"max_backoff_reached\": %lld}",
      ll(rec.failures()), ll(rec.repairs()), ll(rec.exclusions()),
      ll(rec.inclusions()), ll(rec.exclusion_churn()),
      ll(rec.detection().count), rec.detection().mean(),
      ll(rec.detection().max), ll(rec.recovery().count),
      rec.recovery().mean(), ll(rec.recovery().max),
      ll(rec.blackholed_bytes()), ll(rec.degraded_delivered_bytes()),
      ll(ctl ? ctl->dropped() : 0), ll(ctl ? ctl->delayed() : 0),
      ll(ctl ? ctl->duplicated() : 0), ll(neg ? neg->degraded_slots() : 0),
      ll(neg ? neg->fallback_bytes() : 0), ll(rec.control_grants()),
      ll(rec.control_accepts()), rec.control_match_ratio(),
      ll(data ? data->dropped() : 0), ll(data ? data->corrupted() : 0),
      ll(data ? data->dropped_bytes() : 0),
      ll(data ? data->corrupted_bytes() : 0),
      ll(arq ? arq->retransmitted_bytes() : 0),
      ll(arq ? arq->spurious_retx() : 0), ll(arq ? arq->rto_fires() : 0),
      ll(arq ? arq->max_backoff_reached() : 0));
  return buf;
}

std::string delivery_observables(const PlaneCase& pc) {
  NetworkConfig cfg = base_config(87, pc.kind);
  cfg.data_fault = lossy_data(0.05, 0.01);
  cfg.data_fault.arq = pc.arq;
  if (pc.host_plane) {
    cfg.host_plane.enabled = true;
    cfg.host_plane.rx_buffer_capacity = 600'000;
    cfg.host_plane.rx_high_watermark = 300'000;
    cfg.host_plane.rx_low_watermark = 150'000;
  }
  Runner runner(cfg);
  FabricSim& fab = runner.fabric();
  if (pc.link_failures) {
    for (const TorId tor : {1, 6, 11}) {
      fab.schedule_link_event(kDuration / 4, tor, 2, LinkDirection::kEgress,
                              true);
      fab.schedule_link_event(kDuration / 2, tor, 2, LinkDirection::kEgress,
                              false);
    }
  }
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.6, Rng(cfg.seed));
  runner.add_flows(gen.generate(0, kDuration));
  runner.run(kDuration, kDuration / 4);

  std::ostringstream os;
  os << "deliveries=" << fab.deliveries()
     << " dispatches=" << fab.delivery_dispatches();
  if (const DataChannel* d = fab.data_channel()) {
    os << " dropped=" << d->dropped() << " corrupted=" << d->corrupted();
  }
  if (const HostTransport* t = fab.host_transport()) {
    os << " retransmitted=" << t->retransmitted_bytes()
       << " rto_fires=" << t->rto_fires()
       << " spurious=" << t->spurious_retx();
  }
  if (const ConservationAuditor* a = fab.conservation_auditor()) {
    os << " checks=" << a->checks();
  }
  os << " resilience=" << resilience_json(fab);
  return os.str();
}

TEST(DataChannel, DeliveryPlaneObservablesArePinned) {
  const PlaneCase cases[] = {
      {"negotiator drop", SchedulerKind::kNegotiator, false, false, false,
       3702059328245119405ULL},
      {"negotiator arq", SchedulerKind::kNegotiator, true, false, false,
       17542574215734865622ULL},
      {"oblivious drop", SchedulerKind::kOblivious, false, false, false,
       5308167383031444985ULL},
      {"oblivious arq", SchedulerKind::kOblivious, true, false, false,
       7281772117254156226ULL},
      {"oblivious link failures", SchedulerKind::kOblivious, false, true,
       false, 11755841054212656769ULL},
      {"negotiator host plane", SchedulerKind::kNegotiator, true, false, true,
       18085817454214437823ULL},
  };
  for (const PlaneCase& pc : cases) {
    const std::string observed = delivery_observables(pc);
    std::uint64_t h = kFnv1aBasis;
    for (const char c : observed) {
      h = fnv1a_mix(h, static_cast<unsigned char>(c));
    }
    EXPECT_EQ(h, pc.expected) << pc.name << ": " << observed;
  }
}

}  // namespace
}  // namespace negotiator
