// Unit contract for the end-host selective-repeat ARQ
// (tor/host_transport.h): sequence numbering, duplicate suppression,
// cumulative+selective ack resolution, lazy RTO timers with exponential
// backoff, retransmit FIFO round-trips, abandonment, the
// conservation-ledger bucket moves, and the memory bound (released units
// behave as duplicates; storage tracks the live window over 10^5 units)
// — plus full-fabric integration runs proving ARQ delivers everything
// under moderate loss on both fabrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/config.h"
#include "common/rng.h"
#include "engine/network.h"
#include "engine/runner.h"
#include "sim/event_queue.h"
#include "stats/resilience_recorder.h"
#include "tor/host_transport.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

NetworkConfig arq_config(std::uint64_t seed = 1) {
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.scheduler = SchedulerKind::kNegotiator;
  cfg.num_tors = 8;
  cfg.ports_per_tor = 4;
  cfg.seed = seed;
  cfg.data_fault.enabled = true;
  cfg.data_fault.arq = true;
  return cfg;
}

/// The transport's own base RTO, derived exactly as the constructor does.
Nanos base_rto(const NetworkConfig& cfg) {
  return static_cast<Nanos>(cfg.data_fault.rto_epochs *
                            static_cast<double>(cfg.epoch_length_ns()));
}

TEST(HostTransport, SequenceNumbersAreDenseOneBasedAndPerFlow) {
  NetworkConfig cfg = arq_config();
  EventQueue q;
  HostTransport t(cfg, &q);
  EXPECT_EQ(t.on_transmit(0, 1, 2, 100, 0), 1u);
  EXPECT_EQ(t.on_transmit(0, 1, 2, 200, 10), 2u);
  EXPECT_EQ(t.on_transmit(0, 1, 2, 300, 20), 3u);
  EXPECT_EQ(t.on_transmit(7, 3, 4, 400, 30), 1u) << "flows are independent";
  EXPECT_EQ(t.flow_src(0), 1);
  EXPECT_EQ(t.flow_dst(0), 2);
  EXPECT_EQ(t.flow_src(7), 3);
  EXPECT_EQ(t.unresolved_bytes(), 1'000);
  EXPECT_EQ(t.delivered_bytes(), 0);
}

TEST(HostTransport, DuplicateDeliveryIsSuppressedAndCountedSpurious) {
  NetworkConfig cfg = arq_config();
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 500, 0);
  EXPECT_TRUE(t.on_deliver(0, 1, 500, 100)) << "first arrival credits";
  EXPECT_FALSE(t.on_deliver(0, 1, 500, 200)) << "duplicate discards";
  EXPECT_EQ(t.spurious_retx(), 1);
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.delivered_bytes(), 500);
}

TEST(HostTransport, CumulativeAckResolvesEverythingBelowTheWatermark) {
  NetworkConfig cfg = arq_config();
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);
  t.on_transmit(0, 1, 2, 100, 0);
  t.on_transmit(0, 1, 2, 100, 0);
  // Deliver out of order: 2 first (selective), then 1 (cumulative jumps
  // to 2), then 3.
  EXPECT_TRUE(t.on_deliver(0, 2, 100, 50));
  EXPECT_TRUE(t.on_deliver(0, 1, 100, 60));
  EXPECT_TRUE(t.on_deliver(0, 3, 100, 70));
  t.flush_acks(70 + prop);
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.delivered_bytes(), 300);
  // Everything acked: a later timer wakeup finds nothing in flight.
  EXPECT_FALSE(t.on_timer(0, 70 + prop + 10 * base_rto(cfg)));
  EXPECT_EQ(t.rto_fires(), 0);
}

TEST(HostTransport, StaleWakeupReArmsWithoutCountingAFire) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);        // timer armed for t=rto
  t.on_transmit(0, 1, 2, 100, rto / 2);  // younger unit, no new timer
  // The first unit's copy arrives; its ack is effective before the fire.
  EXPECT_TRUE(t.on_deliver(0, 1, 100, rto / 2));
  ASSERT_GT(rto, rto / 2 + prop) << "test premise: ack lands pre-fire";
  // Fire at the original deadline: the ack resolved unit 1, unit 2's
  // deadline is rto/2 + rto — still in the future, so the wakeup is
  // stale and must not count.
  EXPECT_FALSE(t.on_timer(0, rto));
  EXPECT_EQ(t.rto_fires(), 0);
  EXPECT_FALSE(t.has_retx(1, 2));
  // The re-armed timer fires at the real deadline: genuine RTO.
  EXPECT_TRUE(t.on_timer(0, rto / 2 + rto));
  EXPECT_EQ(t.rto_fires(), 1);
  EXPECT_TRUE(t.has_retx(1, 2));
}

TEST(HostTransport, RtoRoundTripsThroughTheRetxFifo) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  EventQueue q;
  HostTransport t(cfg, &q);
  ResilienceRecorder rec(cfg.num_tors, cfg.ports_per_tor);
  t.set_recorder(&rec);
  t.on_transmit(0, 1, 2, 700, 0);
  EXPECT_TRUE(t.on_timer(0, rto)) << "genuine RTO moves the unit";
  EXPECT_EQ(t.rto_fires(), 1);
  EXPECT_TRUE(t.has_retx(1, 2));
  EXPECT_TRUE(t.has_retx_from(1));
  EXPECT_EQ(t.retx_backlog_bytes(), 700);
  EXPECT_EQ(t.unresolved_bytes(), 700) << "still unresolved while queued";

  const HostTransport::RetxChunk r = t.take_retx(1, 2, rto + 10);
  EXPECT_EQ(r.flow, 0);
  EXPECT_EQ(r.dst, 2);
  EXPECT_EQ(r.bytes, 700);
  EXPECT_EQ(r.seq, 1u) << "a retransmission reuses the unit's seq";
  EXPECT_FALSE(t.has_retx(1, 2));
  EXPECT_EQ(t.retx_backlog_bytes(), 0);
  EXPECT_EQ(t.retransmitted_bytes(), 700);
  EXPECT_EQ(rec.retransmitted_bytes(), 700);
  EXPECT_EQ(rec.rto_fires(), 1);

  // The retransmitted copy lands: first arrival, normal credit.
  EXPECT_TRUE(t.on_deliver(0, r.seq, r.bytes, rto + 500));
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.delivered_bytes(), 700);
  EXPECT_EQ(t.spurious_retx(), 0);
}

TEST(HostTransport, BackoffDoublesUpToTheCap) {
  NetworkConfig cfg = arq_config();
  cfg.data_fault.rto_epochs = 1.0;
  cfg.data_fault.rto_backoff = 2.0;
  cfg.data_fault.rto_cap_epochs = 4.0;
  cfg.data_fault.max_retries = 100;
  const Nanos e = base_rto(cfg);  // rto_epochs = 1 -> one epoch
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);
  // Fire 1 at t=e (rto = e), retransmit; rto doubles to 2e.
  EXPECT_TRUE(t.on_timer(0, e));
  t.take_retx(1, 2, e);
  // Fire 2 at e + 2e; rto doubles to 4e (= cap).
  EXPECT_TRUE(t.on_timer(0, 3 * e));
  t.take_retx(1, 2, 3 * e);
  EXPECT_EQ(t.max_backoff_reached(), 0) << "cap not hit yet";
  // Fire 3 at 3e + 4e: the flow sits at the cap now.
  EXPECT_TRUE(t.on_timer(0, 7 * e));
  EXPECT_EQ(t.rto_fires(), 3);
  EXPECT_EQ(t.max_backoff_reached(), 1);
}

TEST(HostTransport, AckProgressResetsTheBackoff) {
  NetworkConfig cfg = arq_config();
  cfg.data_fault.rto_epochs = 1.0;
  cfg.data_fault.rto_backoff = 2.0;
  cfg.data_fault.rto_cap_epochs = 64.0;
  const Nanos e = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);
  EXPECT_TRUE(t.on_timer(0, e));  // rto -> 2e
  t.take_retx(1, 2, e);
  // The retransmitted copy arrives; ack progress resets rto to base.
  EXPECT_TRUE(t.on_deliver(0, 1, 100, e + 10));
  t.flush_acks(e + 10 + prop);
  // A new unit now times out after the *base* rto again, not 2e.
  const Nanos t2 = 10 * e;
  t.on_transmit(0, 1, 2, 100, t2);
  EXPECT_TRUE(t.on_timer(0, t2 + e))
      << "a backed-off rto would make this wakeup stale";
  EXPECT_EQ(t.rto_fires(), 2);
}

TEST(HostTransport, MaxRetriesAbandonsTheFlow) {
  NetworkConfig cfg = arq_config();
  cfg.data_fault.max_retries = 2;
  const Nanos rto = base_rto(cfg);
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 900, 0);
  EXPECT_TRUE(t.on_timer(0, rto));  // retries = 1
  t.take_retx(1, 2, rto);
  EXPECT_TRUE(t.on_timer(0, rto + 2 * rto));  // retries = 2
  t.take_retx(1, 2, 3 * rto);
  // Third consecutive expiry without progress exceeds max_retries.
  EXPECT_FALSE(t.on_timer(0, 3 * rto + 4 * rto));
  EXPECT_EQ(t.abandoned_units(), 1);
  EXPECT_EQ(t.abandoned_bytes(), 900);
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_FALSE(t.has_retx(1, 2));
  // A copy of the abandoned unit straggling in is discarded.
  EXPECT_FALSE(t.on_deliver(0, 1, 900, 100 * rto));
  EXPECT_EQ(t.spurious_retx(), 1);
}

TEST(HostTransport, LateCopiesAfterAbandonmentStaySpurious) {
  // Units 1-2 are acked and released; units 3-4 are then abandoned. Late
  // copies of either kind are discarded and counted spurious. The
  // receiver's watermark stops at unit 3 (abandoned, never delivered),
  // so the flow's window stops sliding: later units stay stored.
  NetworkConfig cfg = arq_config();
  cfg.data_fault.max_retries = 0;  // the first genuine expiry abandons
  const Nanos rto = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  for (int i = 0; i < 4; ++i) t.on_transmit(0, 1, 2, 100, 0);
  EXPECT_TRUE(t.on_deliver(0, 1, 100, 10));
  EXPECT_TRUE(t.on_deliver(0, 2, 100, 10));
  t.flush_acks(10 + prop);
  EXPECT_EQ(t.footprint().units, 2u) << "acked half released";
  EXPECT_FALSE(t.on_timer(0, rto));
  EXPECT_EQ(t.abandoned_units(), 2);
  EXPECT_EQ(t.unresolved_bytes(), 0);

  EXPECT_FALSE(t.on_deliver(0, 3, 100, rto + 1)) << "abandoned unit";
  EXPECT_FALSE(t.on_deliver(0, 1, 100, rto + 1)) << "released unit";
  EXPECT_EQ(t.spurious_retx(), 2);
  EXPECT_EQ(t.delivered_bytes(), 200);
  EXPECT_EQ(t.abandoned_bytes(), 200);

  // The stall: a unit sent after abandonment is delivered and acked, but
  // the watermark cannot pass unit 3, so nothing more is released.
  EXPECT_EQ(t.on_transmit(0, 1, 2, 100, rto + 2), 5u);
  EXPECT_TRUE(t.on_deliver(0, 5, 100, rto + 3));
  t.flush_acks(rto + 3 + prop);
  EXPECT_EQ(t.footprint().units, 3u);
  EXPECT_EQ(t.unresolved_bytes(), 0);
}

TEST(HostTransport, StarvedRetransmissionsDoNotCountTowardAbandonment) {
  // A flow whose queued retransmissions the fabric has not yet served
  // (starved behind another flow's debt on the shared pair FIFO) must
  // not burn through max_retries: its expiries prove congestion, not
  // loss. With max_retries = 1 the flow survives arbitrarily many
  // expiries while a unit sits in the FIFO, and still abandons on the
  // second *attempted-and-lost* round.
  NetworkConfig cfg = arq_config();
  cfg.data_fault.max_retries = 1;
  cfg.data_fault.rto_backoff = 1.0;  // fixed RTO keeps the timeline simple
  cfg.data_fault.rto_cap_epochs = cfg.data_fault.rto_epochs;
  const Nanos rto = base_rto(cfg);
  EventQueue q;
  HostTransport t(cfg, &q);
  // Two units: the first expiry queues only unit 1 (unit 2 is younger);
  // every later expiry finds unit 1 still waiting in the FIFO.
  t.on_transmit(0, 1, 2, 100, 0);
  t.on_transmit(0, 1, 2, 200, rto / 2);
  EXPECT_TRUE(t.on_timer(0, rto));  // genuine: queues unit 1, retries = 1
  for (int round = 2; round <= 6; ++round) {
    // Unit 2 (and later re-expiries) keep firing, but unit 1 was never
    // taken — none of these count toward max_retries.
    t.on_timer(0, round * rto);
  }
  EXPECT_EQ(t.abandoned_units(), 0) << "starved expiries must not abandon";
  EXPECT_TRUE(t.has_retx(1, 2));
  // The fabric finally serves the pair; both units go back in flight.
  while (t.has_retx(1, 2)) t.take_retx(1, 2, 6 * rto);
  // Both retransmissions are lost too: the next expiry is round two of
  // attempted-and-lost, which exceeds max_retries = 1 and abandons.
  EXPECT_FALSE(t.on_timer(0, 7 * rto + 1));
  EXPECT_EQ(t.abandoned_units(), 2);
  EXPECT_EQ(t.unresolved_bytes(), 0);
  EXPECT_EQ(t.abandoned_bytes(), 300);
}

TEST(HostTransport, LateArrivalCancelsAQueuedRetransmission) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  // Two pairs with pending retransmissions; flow 0 queues four units.
  for (int i = 0; i < 4; ++i) t.on_transmit(0, 0, 1, 100, 0);
  t.on_transmit(1, 2, 3, 200, 0);
  EXPECT_TRUE(t.on_timer(0, rto));
  EXPECT_TRUE(t.on_timer(1, rto));
  EXPECT_EQ(t.retx_backlog_bytes(), 600);
  // Flow 0's original copies of units 1-3 arrive late; the acks cancel
  // their queued retransmissions (the FIFO entries go stale in place)
  // and, covering at least half the flow's stored units, release them.
  for (std::uint32_t seq = 1; seq <= 3; ++seq) {
    EXPECT_TRUE(t.on_deliver(0, seq, 100, rto + 1));
  }
  t.flush_acks(rto + 1 + prop);
  EXPECT_EQ(t.retx_backlog_bytes(), 300);
  EXPECT_EQ(t.footprint().units, 2u) << "flow 0 keeps only unit 4";
  // The pop skips the released units' stale entries.
  ASSERT_TRUE(t.has_retx(0, 1));
  EXPECT_EQ(t.take_retx(0, 1, rto + 2).seq, 4u);
  EXPECT_FALSE(t.has_retx(0, 1));
  // The pair gather visits only the live pair and compacts the rest out.
  int visited = 0;
  t.for_each_retx_pair([&](TorId s, TorId d) {
    ++visited;
    EXPECT_EQ(s, 2);
    EXPECT_EQ(d, 3);
  });
  EXPECT_EQ(visited, 1);
}

TEST(HostTransport, CopyOfAReleasedUnitIsDiscardedAsSpurious) {
  NetworkConfig cfg = arq_config();
  const Nanos prop = cfg.propagation_delay_ns;
  EventQueue q;
  HostTransport t(cfg, &q);
  ResilienceRecorder rec(cfg.num_tors, cfg.ports_per_tor);
  t.set_recorder(&rec);
  for (int i = 0; i < 8; ++i) t.on_transmit(0, 1, 2, 100, 0);
  for (std::uint32_t seq = 1; seq <= 4; ++seq) {
    EXPECT_TRUE(t.on_deliver(0, seq, 100, 10));
  }
  t.flush_acks(10 + prop);
  EXPECT_EQ(t.footprint().units, 4u) << "the acked half is released";

  // A spurious retransmission's copy of released unit 2 straggles in.
  EXPECT_FALSE(t.on_deliver(0, 2, 100, 20));
  EXPECT_EQ(t.spurious_retx(), 1);
  EXPECT_EQ(rec.spurious_retx(), 1);
  EXPECT_EQ(t.delivered_bytes(), 400);
  EXPECT_EQ(t.unresolved_bytes(), 400);

  // Stored units still deliver normally; a fully acked flow frees its
  // unit and in-flight storage, and a copy of any unit is then spurious.
  for (std::uint32_t seq = 5; seq <= 8; ++seq) {
    EXPECT_TRUE(t.on_deliver(0, seq, 100, 30));
  }
  t.flush_acks(30 + prop);
  EXPECT_EQ(t.footprint().units, 0u);
  EXPECT_EQ(t.footprint().inflight, 0u);
  EXPECT_FALSE(t.on_deliver(0, 8, 100, 40));
  EXPECT_EQ(t.spurious_retx(), 2);
  EXPECT_EQ(t.delivered_bytes(), 800);
  EXPECT_EQ(t.unresolved_bytes(), 0);
}

TEST(HostTransport, StorageTracksTheLiveWindowNotTheUnitsEverSent) {
  // One flow streams 2^17 units without its window ever draining: each
  // step sends a unit, delivers the one sent kLag steps earlier and
  // flushes the acks that matured. Every structure must stay within a
  // small constant of the live window (~kLag + the ack delay in steps).
  NetworkConfig cfg = arq_config();
  const Nanos prop = cfg.propagation_delay_ns;
  const Nanos step = prop / 4;
  constexpr std::uint32_t kUnits = 1u << 17;
  constexpr std::uint32_t kLag = 8;
  EventQueue q;
  HostTransport t(cfg, &q);
  HostTransport::Footprint peak{0, 0, 0, 0};
  for (std::uint32_t i = 0; i < kUnits + kLag; ++i) {
    const Nanos now = static_cast<Nanos>(i) * step;
    if (i < kUnits) t.on_transmit(0, 1, 2, 100, now);
    if (i >= kLag) {
      EXPECT_TRUE(t.on_deliver(0, i - kLag + 1, 100, now));
    }
    t.flush_acks(now);
    const HostTransport::Footprint fp = t.footprint();
    peak.units = std::max(peak.units, fp.units);
    peak.inflight = std::max(peak.inflight, fp.inflight);
    peak.acks = std::max(peak.acks, fp.acks);
    peak.retx = std::max(peak.retx, fp.retx);
  }
  constexpr std::size_t kBound = 4 * (kLag + 4 + 1);
  EXPECT_LE(peak.units, kBound);
  EXPECT_LE(peak.inflight, kBound);
  EXPECT_LE(peak.acks, kBound);
  EXPECT_EQ(peak.retx, 0u);
  EXPECT_EQ(t.delivered_bytes(), Bytes{100} * kUnits);
  EXPECT_EQ(t.spurious_retx(), 0);
}

TEST(HostTransport, RetxFifoIsServedInOrderAcrossFlowsOfAPair) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  EventQueue q;
  HostTransport t(cfg, &q);
  t.on_transmit(0, 1, 2, 100, 0);
  t.on_transmit(3, 1, 2, 200, 0);  // same (src, dst) pair
  EXPECT_TRUE(t.on_timer(0, rto));
  EXPECT_TRUE(t.on_timer(3, rto));
  EXPECT_EQ(t.take_retx(1, 2, rto).flow, 0);
  EXPECT_EQ(t.take_retx(1, 2, rto).flow, 3);
  EXPECT_FALSE(t.has_retx(1, 2));
}

/// Integration bar (both fabrics): at moderate loss, ARQ re-delivers every
/// dropped chunk — after a drain period every flow completes, nothing is
/// abandoned, and the ledger returns to zero unresolved bytes. The
/// conservation auditor is armed throughout (validate_matching).
void run_arq_recovers(SchedulerKind kind, std::uint64_t seed) {
  constexpr Nanos kArrivals = 200'000;
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  cfg.scheduler = kind;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 8;
  cfg.seed = seed;
  cfg.validate_matching = true;
  cfg.data_fault.enabled = true;
  cfg.data_fault.arq = true;
  cfg.data_fault.first_hop_drop = 0.05;
  cfg.data_fault.relay_drop = 0.05;
  cfg.data_fault.second_hop_drop = 0.05;
  cfg.data_fault.corrupt_prob = 0.01;

  Runner runner(cfg);
  ResilienceRecorder rec(cfg.num_tors, cfg.ports_per_tor);
  runner.fabric().set_resilience(&rec);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.5, Rng(cfg.seed));
  const auto flows = gen.generate(0, kArrivals);
  runner.add_flows(flows);
  const RunResult r = runner.run(8 * kArrivals, kArrivals / 4);

  EXPECT_EQ(r.completed, flows.size()) << "ARQ must recover every flow";
  EXPECT_EQ(r.backlog, 0);
  const FabricSim& fabric = runner.fabric();
  const HostTransport* t = fabric.host_transport();
  ASSERT_NE(t, nullptr);
  EXPECT_GT(rec.data_dropped(), 0) << "the channel really dropped chunks";
  EXPECT_GT(t->retransmitted_bytes(), 0);
  EXPECT_GT(t->rto_fires(), 0);
  EXPECT_EQ(t->abandoned_bytes(), 0);
  EXPECT_EQ(t->unresolved_bytes(), 0) << "drained: nothing left in flight";
  EXPECT_EQ(rec.retransmitted_bytes(), t->retransmitted_bytes());
  EXPECT_EQ(rec.rto_fires(), t->rto_fires());
  ASSERT_NE(fabric.conservation_auditor(), nullptr);
  EXPECT_GT(fabric.conservation_auditor()->checks(), 0);
}

TEST(HostTransport, ArqRecoversEveryFlowOnTheNegotiatorFabric) {
  run_arq_recovers(SchedulerKind::kNegotiator, 71);
}

TEST(HostTransport, ArqRecoversEveryFlowOnTheObliviousFabric) {
  run_arq_recovers(SchedulerKind::kOblivious, 72);
}

}  // namespace
}  // namespace negotiator
