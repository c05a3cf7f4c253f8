// Unit contract for the lossy data plane (core/data_channel.h): the
// per-chunk draw-order and loss-window semantics, bit-identity of a
// zero-rate channel with a channel-free build (both fabrics), per-hop-
// class independence, the ResilienceRecorder mirror, the byte-
// conservation auditor's ledger across lossy runs without ARQ, and the
// delivery plane's counters on both fabrics.
// tests/test_host_transport.cpp covers the end-host ARQ layered on top.
#include <gtest/gtest.h>

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

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Full-output fingerprint (FCT samples + summary), same recipe as the
/// golden table in test_seed_equivalence.cpp.
std::uint64_t run_fingerprint(const NetworkConfig& cfg,
                              ResilienceRecorder* recorder = nullptr,
                              RunResult* out = nullptr) {
  Runner runner(cfg);
  if (recorder != nullptr) runner.fabric().set_resilience(recorder);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.6, Rng(cfg.seed));
  runner.add_flows(gen.generate(0, kDuration));
  const RunResult r = runner.run(kDuration, kDuration / 4);
  if (out != nullptr) *out = r;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const FctSample& s : runner.fabric().fct().samples()) {
    h = fnv_mix(h, static_cast<std::uint64_t>(s.flow));
    h = fnv_mix(h, static_cast<std::uint64_t>(s.fct));
  }
  h = fnv_mix(h, static_cast<std::uint64_t>(r.completed));
  h = fnv_mix(h, static_cast<std::uint64_t>(r.backlog));
  h = fnv_mix(h, runner.fabric().events_executed());
  return h;
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

TEST(DataChannel, RecorderCountersMirrorTheChannel) {
  DataFaultConfig f = lossy_data(0.4, 0.2);
  DataChannel channel(f, make_salted_stream(13, kDataChannelSeedSalt));
  ResilienceRecorder rec(4, 2);
  channel.set_recorder(&rec);
  channel.begin_epoch(0);
  for (int i = 0; i < 3'000; ++i) {
    channel.classify(static_cast<DataHopClass>(i % 3), 500);
  }
  EXPECT_GT(channel.dropped(), 0);
  EXPECT_GT(channel.corrupted(), 0);
  EXPECT_EQ(rec.data_dropped(), channel.dropped());
  EXPECT_EQ(rec.data_corrupted(), channel.corrupted());
  EXPECT_EQ(rec.data_dropped_bytes(), channel.dropped_bytes());
  EXPECT_EQ(rec.data_corrupted_bytes(), channel.corrupted_bytes());

  const std::string json = rec.json();
  EXPECT_EQ(json.find("{\"schema_version\": 2, "), 0u)
      << "schema_version must lead the object: " << json;
  for (const char* field :
       {"data_dropped", "data_corrupted", "data_dropped_bytes",
        "data_corrupted_bytes", "retransmitted_bytes", "spurious_retx",
        "rto_fires", "max_backoff_reached"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Fixed order: dropped counts precede byte counts precede ARQ counters.
  EXPECT_LT(json.find("data_dropped"), json.find("data_corrupted"));
  EXPECT_LT(json.find("data_corrupted_bytes"), json.find("retransmitted_bytes"));
  EXPECT_LT(json.find("retransmitted_bytes"), json.find("rto_fires"));
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
// complete more flows than the lossless twin, and the recorder must see
// the dropped bytes.
TEST(DataChannel, DropsStrictlyHurtWithoutArq) {
  NetworkConfig clean = base_config(86);
  RunResult clean_result;
  run_fingerprint(clean, nullptr, &clean_result);

  NetworkConfig lossy_cfg = base_config(86);
  lossy_cfg.data_fault = lossy_data(0.3);
  ResilienceRecorder rec(lossy_cfg.num_tors, lossy_cfg.ports_per_tor);
  RunResult lossy_result;
  run_fingerprint(lossy_cfg, &rec, &lossy_result);

  EXPECT_LT(lossy_result.completed, clean_result.completed);
  EXPECT_GT(rec.data_dropped(), 0);
  EXPECT_GT(rec.data_dropped_bytes(), 0);
  EXPECT_EQ(rec.retransmitted_bytes(), 0) << "no ARQ, no retransmissions";
}

// The end-host delivery path's observables that no golden hashes: the
// delivery counters, the resilience JSON, the channel's drop/corrupt
// counts, the transport's ARQ counters and the auditor's check count.
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
  ResilienceRecorder rec(cfg.num_tors, cfg.ports_per_tor);
  fab.set_resilience(&rec);
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
  os << " resilience=" << rec.json();
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
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : observed) {
      h = fnv_mix(h, static_cast<unsigned char>(c));
    }
    EXPECT_EQ(h, pc.expected) << pc.name << ": " << observed;
  }
}

}  // namespace
}  // namespace negotiator
