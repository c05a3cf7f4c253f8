// Unit contract for the end-host selective-repeat ARQ
// (tor/host_transport.h): sequence numbering, duplicate suppression,
// cumulative+selective ack resolution, lazy RTO timers with exponential
// backoff, retransmit FIFO round-trips, abandonment, the
// conservation-ledger bucket moves, and the memory bound (released units
// behave as duplicates; storage tracks the live window over 10^5 units;
// a finished flow's state returns to the pool) — plus a differential
// test against a reference model that keeps one in-flight entry per
// transmission and never releases a flow, and full-fabric integration
// runs proving ARQ delivers everything under moderate loss on both
// fabrics and leaves no flow state behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "engine/flow_table.h"
#include "engine/network.h"
#include "engine/runner.h"
#include "sim/event_queue.h"
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

/// A table of flows 0..n-1 that never finish (nothing credits them), for
/// transports driven without a fabric: none of their state is released.
FlowTable open_flows(int n = 8) {
  FlowTable table;
  for (int i = 0; i < n; ++i) table.add(Flow{i, 0, 1, Bytes{1} << 40, 0, 0});
  return table;
}

/// The transport's own base RTO, derived exactly as the constructor does.
Nanos base_rto(const NetworkConfig& cfg) {
  return static_cast<Nanos>(cfg.data_fault.rto_epochs *
                            static_cast<double>(cfg.epoch_length_ns()));
}

TEST(HostTransport, SequenceNumbersAreDenseOneBasedAndPerFlow) {
  NetworkConfig cfg = arq_config();
  EventQueue q;
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
  for (int i = 0; i < 8; ++i) t.on_transmit(0, 1, 2, 100, 0);
  for (std::uint32_t seq = 1; seq <= 4; ++seq) {
    EXPECT_TRUE(t.on_deliver(0, seq, 100, 10));
  }
  t.flush_acks(10 + prop);
  EXPECT_EQ(t.footprint().units, 4u) << "the acked half is released";

  // A spurious retransmission's copy of released unit 2 straggles in.
  EXPECT_FALSE(t.on_deliver(0, 2, 100, 20));
  EXPECT_EQ(t.spurious_retx(), 1);
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

TEST(HostTransport, FinishedFlowReturnsItsStateToThePool) {
  // Flow 0 (200 B) is done once both its units land and finished once
  // both are acked: its state goes back to the pool, and whatever still
  // names it is stale. Flow 1 shares its pair, so flow 0's retransmit
  // items sit in the FIFO ahead of a live one.
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  const Nanos prop = cfg.propagation_delay_ns;
  FlowTable table;
  ASSERT_EQ(table.add(Flow{10, 1, 2, 200, 0, 0}), 0);
  ASSERT_EQ(table.add(Flow{11, 1, 2, 100, 0, 0}), 1);
  ASSERT_EQ(table.add(Flow{12, 1, 3, 100, 0, 0}), 2);
  EventQueue q;
  HostTransport t(cfg, &q, table);
  auto deliver = [&](std::int32_t flow, std::uint32_t seq, Nanos now) {
    const bool first = t.on_deliver(flow, seq, 100, now);
    if (first) table.credit(flow, 100, now);  // as the delivery flush does
    return first;
  };
  EXPECT_EQ(t.on_transmit(0, 1, 2, 100, 0), 1u);
  EXPECT_EQ(t.on_transmit(0, 1, 2, 100, 0), 2u);
  EXPECT_EQ(t.on_transmit(1, 1, 2, 100, 1), 1u);
  EXPECT_EQ(t.footprint().flows, 2u);
  // Every unit times out; flow 0's queue ahead of flow 1's.
  EXPECT_TRUE(t.on_timer(0, rto));
  EXPECT_TRUE(t.on_timer(1, rto + 1));
  // The originals land late after all: flow 0 is done, and finished once
  // the acks mature.
  EXPECT_TRUE(deliver(0, 1, rto + 2));
  EXPECT_TRUE(deliver(0, 2, rto + 2));
  EXPECT_TRUE(table.done(0));
  EXPECT_TRUE(t.tracks(0)) << "done, but its acks have not matured";
  t.flush_acks(rto + 2 + prop);
  EXPECT_FALSE(t.tracks(0));
  EXPECT_TRUE(t.tracks(1));
  EXPECT_EQ(t.footprint().flows, 1u);

  // A late copy is spurious; the stale retransmit items are skipped.
  EXPECT_FALSE(t.on_deliver(0, 2, 100, rto + 3 + prop));
  EXPECT_EQ(t.spurious_retx(), 1);
  ASSERT_TRUE(t.has_retx(1, 2));
  const HostTransport::RetxChunk r = t.take_retx(1, 2, rto + 4 + prop);
  EXPECT_EQ(r.flow, 1);
  EXPECT_EQ(r.seq, 1u);
  EXPECT_FALSE(t.has_retx(1, 2));

  // A timer of the finished flow still flushes the acks due: flow 1's
  // retransmission lands, and the fire as its ack matures finishes it.
  const Nanos landed = rto + 5 + prop;
  EXPECT_TRUE(deliver(1, 1, landed));
  EXPECT_FALSE(t.on_timer(0, landed + prop));
  EXPECT_FALSE(t.tracks(1));
  EXPECT_EQ(t.footprint().flows, 0u);
  EXPECT_EQ(t.rto_fires(), 2);

  // The pool hands the state to the next flow, fresh.
  EXPECT_EQ(t.on_transmit(2, 1, 3, 100, landed + prop), 1u);
  EXPECT_TRUE(t.tracks(2));
  EXPECT_EQ(t.footprint().flows, 1u);
  EXPECT_EQ(t.delivered_bytes(), 300);
  EXPECT_EQ(t.unresolved_bytes(), 100);
  EXPECT_DEATH(t.on_transmit(0, 1, 2, 100, landed + prop), "finished flow");
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
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
  HostTransport::Footprint peak{};
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
  EXPECT_EQ(peak.inflight, 0u) << "a loss-free stream stores no side entries";
  EXPECT_LE(peak.acks, kBound);
  EXPECT_EQ(peak.retx, 0u);
  EXPECT_EQ(t.delivered_bytes(), Bytes{100} * kUnits);
  EXPECT_EQ(t.spurious_retx(), 0);
}

TEST(HostTransport, UnitRecordIsSixteenBytes) {
  EXPECT_LE(HostTransport::kBytesPerUnit, 16u);
}

/// The transport's observable contract, kept as simple as possible: every
/// transmission pushes an in-flight entry onto a per-flow FIFO, an entry
/// is valid while its unit is in flight with the entry's send time, and
/// no storage is ever released (a released unit in the real transport is
/// acked and delivered here, so it behaves identically).
class ReferenceTransport {
 public:
  ReferenceTransport(const NetworkConfig& cfg, EventQueue* events)
      : n_(cfg.num_tors),
        prop_(cfg.propagation_delay_ns),
        base_rto_(base_rto(cfg)),
        rto_cap_(static_cast<Nanos>(cfg.data_fault.rto_cap_epochs *
                                    static_cast<double>(
                                        cfg.epoch_length_ns()))),
        backoff_(cfg.data_fault.rto_backoff),
        max_retries_(cfg.data_fault.max_retries),
        events_(events),
        fifo_(static_cast<std::size_t>(n_ * n_)),
        count_(static_cast<std::size_t>(n_ * n_), 0),
        from_(static_cast<std::size_t>(n_), 0) {}

  std::uint32_t on_transmit(std::int32_t flow, TorId src, TorId dst,
                            Bytes bytes, Nanos now) {
    Flow& f = flow_at(flow);
    if (f.src == kInvalidTor) {
      f.src = src;
      f.dst = dst;
      f.rto = base_rto_;
    }
    const auto idx = static_cast<std::uint32_t>(f.units.size());
    f.units.push_back(Unit{bytes, now, kInFlight, false});
    unresolved_ += bytes;
    f.inflight.emplace_back(idx, now);
    if (!f.armed) arm(f, flow, now + f.rto);
    return idx + 1;
  }

  bool on_deliver(std::int32_t flow, std::uint32_t seq, Bytes bytes,
                  Nanos now) {
    Flow& f = flow_at(flow);
    Unit& u = f.units[seq - 1];
    if (u.delivered || u.state == kAbandoned) {
      ++spurious_;
      return false;
    }
    u.delivered = true;
    unresolved_ -= bytes;
    delivered_ += bytes;
    while (f.cum_rx < f.units.size() && f.units[f.cum_rx].delivered) {
      ++f.cum_rx;
    }
    acks_.push_back(Ack{now + prop_, flow, seq, f.cum_rx});
    return true;
  }

  void flush_acks(Nanos now) {
    while (ack_head_ < acks_.size() && acks_[ack_head_].effective <= now) {
      const Ack a = acks_[ack_head_++];
      Flow& f = flows_[static_cast<std::size_t>(a.flow)];
      bool progress = resolve(f, a.seq - 1);
      for (std::uint32_t i = f.cum_tx; i < a.cum; ++i) {
        progress = resolve(f, i) || progress;
      }
      f.cum_tx = std::max(f.cum_tx, a.cum);
      if (progress) {
        f.rto = base_rto_;
        f.retries = 0;
      }
    }
  }

  bool on_timer(std::int32_t flow, Nanos now) {
    Flow& f = flows_[static_cast<std::size_t>(flow)];
    f.armed = false;
    flush_acks(now);
    if (!prune(f)) return false;
    if (f.inflight[f.head].second + f.rto > now) {
      arm(f, flow, f.inflight[f.head].second + f.rto);
      return false;
    }
    ++rto_fires_;
    if (f.rto >= rto_cap_) ++max_backoff_;
    if (f.pending == 0 && ++f.retries > max_retries_) {
      abandon(f);
      return false;
    }
    bool moved = false;
    while (prune(f) && f.inflight[f.head].second + f.rto <= now) {
      const std::uint32_t idx = f.inflight[f.head++].first;
      f.units[idx].state = kRetxPending;
      const std::size_t pair = pair_of(f);
      fifo_[pair].emplace_back(flow, idx);
      ++count_[pair];
      ++from_[static_cast<std::size_t>(f.src)];
      ++f.pending;
      backlog_ += f.units[idx].bytes;
      moved = true;
    }
    f.rto = std::min(rto_cap_, static_cast<Nanos>(
                                   static_cast<double>(f.rto) * backoff_));
    if (prune(f)) arm(f, flow, f.inflight[f.head].second + f.rto);
    return moved;
  }

  bool has_retx(TorId src, TorId dst) const {
    return count_[static_cast<std::size_t>(src * n_ + dst)] > 0;
  }
  bool has_retx_from(TorId src) const {
    return from_[static_cast<std::size_t>(src)] > 0;
  }

  HostTransport::RetxChunk take_retx(TorId src, TorId dst, Nanos now) {
    const auto pair = static_cast<std::size_t>(src * n_ + dst);
    for (;;) {
      const auto [flow, idx] = fifo_[pair].front();
      fifo_[pair].erase(fifo_[pair].begin());
      Flow& f = flows_[static_cast<std::size_t>(flow)];
      Unit& u = f.units[idx];
      if (u.state != kRetxPending) continue;
      --count_[pair];
      --from_[static_cast<std::size_t>(src)];
      --f.pending;
      backlog_ -= u.bytes;
      u.state = kInFlight;
      u.sent_at = now;
      f.inflight.emplace_back(idx, now);
      retransmitted_ += u.bytes;
      if (!f.armed) arm(f, flow, now + f.rto);
      return HostTransport::RetxChunk{flow, f.dst, u.bytes, idx + 1};
    }
  }

  Bytes unresolved_bytes() const { return unresolved_; }
  Bytes delivered_bytes() const { return delivered_; }
  Bytes abandoned_bytes() const { return abandoned_; }
  Bytes retx_backlog_bytes() const { return backlog_; }
  Bytes retransmitted_bytes() const { return retransmitted_; }
  std::int64_t spurious_retx() const { return spurious_; }
  std::int64_t rto_fires() const { return rto_fires_; }
  std::int64_t max_backoff_reached() const { return max_backoff_; }
  std::int64_t abandoned_units() const { return abandoned_units_; }

 private:
  enum State { kInFlight, kRetxPending, kAcked, kAbandoned };
  struct Unit {
    Bytes bytes;
    Nanos sent_at;
    State state;
    bool delivered;
  };
  struct Flow {
    TorId src{kInvalidTor};
    TorId dst{kInvalidTor};
    std::vector<Unit> units;
    std::vector<std::pair<std::uint32_t, Nanos>> inflight;  // (idx, sent)
    std::size_t head{0};
    std::uint32_t cum_rx{0};
    std::uint32_t cum_tx{0};
    int pending{0};
    Nanos rto{0};
    int retries{0};
    bool armed{false};
  };
  struct Ack {
    Nanos effective;
    std::int32_t flow;
    std::uint32_t seq;
    std::uint32_t cum;
  };

  Flow& flow_at(std::int32_t flow) {
    const auto i = static_cast<std::size_t>(flow);
    if (i >= flows_.size()) flows_.resize(i + 1);
    return flows_[i];
  }
  std::size_t pair_of(const Flow& f) const {
    return static_cast<std::size_t>(f.src * n_ + f.dst);
  }
  void arm(Flow& f, std::int32_t flow, Nanos when) {
    events_->schedule_transport_timer(when, TransportTimerEvent{flow});
    f.armed = true;
  }
  bool prune(Flow& f) {
    while (f.head < f.inflight.size()) {
      const auto [idx, sent] = f.inflight[f.head];
      const Unit& u = f.units[idx];
      if (u.state == kInFlight && u.sent_at == sent) return true;
      ++f.head;
    }
    return false;
  }
  bool resolve(Flow& f, std::uint32_t idx) {
    Unit& u = f.units[idx];
    if (u.state == kRetxPending) {
      const std::size_t pair = pair_of(f);
      --count_[pair];
      --from_[static_cast<std::size_t>(f.src)];
      --f.pending;
      backlog_ -= u.bytes;
    } else if (u.state != kInFlight) {
      return false;
    }
    u.state = kAcked;
    return true;
  }
  void abandon(Flow& f) {
    for (Unit& u : f.units) {
      if (u.state == kAcked || u.state == kAbandoned) continue;
      if (u.state == kRetxPending) {
        const std::size_t pair = pair_of(f);
        --count_[pair];
        --from_[static_cast<std::size_t>(f.src)];
        --f.pending;
        backlog_ -= u.bytes;
      }
      if (u.delivered) {
        u.state = kAcked;
        continue;
      }
      u.state = kAbandoned;
      unresolved_ -= u.bytes;
      abandoned_ += u.bytes;
      ++abandoned_units_;
    }
  }

  int n_;
  Nanos prop_;
  Nanos base_rto_;
  Nanos rto_cap_;
  double backoff_;
  int max_retries_;
  EventQueue* events_;
  std::vector<Flow> flows_;
  std::vector<Ack> acks_;
  std::size_t ack_head_{0};
  std::vector<std::vector<std::pair<std::int32_t, std::uint32_t>>> fifo_;
  std::vector<std::int64_t> count_;
  std::vector<std::int64_t> from_;
  Bytes unresolved_{0};
  Bytes delivered_{0};
  Bytes abandoned_{0};
  Bytes backlog_{0};
  Bytes retransmitted_{0};
  std::int64_t spurious_{0};
  std::int64_t rto_fires_{0};
  std::int64_t max_backoff_{0};
  std::int64_t abandoned_units_{0};
};

/// Runs a transport's timer expiries off its own event queue and logs
/// each fire as (time, flow, moved-units).
template <typename Transport>
class TimerLog final : public EventSink {
 public:
  explicit TimerLog(Transport* t) : t_(t) {}
  void on_flow_arrival(const FlowArrivalEvent&, Nanos) override {}
  void on_link_toggle(const LinkToggleEvent&, Nanos) override {}
  void on_transport_timer(const TransportTimerEvent& e, Nanos now) override {
    if constexpr (requires { t_->tracks(e.flow_index); }) {
      finished_fires += !t_->tracks(e.flow_index);
    }
    fires.emplace_back(now, e.flow_index, t_->on_timer(e.flow_index, now));
  }
  std::vector<std::tuple<Nanos, std::int32_t, bool>> fires;
  std::int64_t finished_fires{0};  // timers of flows already finished

 private:
  Transport* t_;
};

/// Coverage of one differential run, so the test can insist that every
/// interesting interleaving actually happened.
struct DiffCoverage {
  std::int64_t stale_fires{0};
  std::int64_t genuine_fires{0};
  std::int64_t retx{0};
  std::int64_t same_now_retx_then_fresh{0};
  std::int64_t spurious{0};
  std::int64_t abandoned{0};
  std::int64_t finished{0};         // flows whose state was released
  std::int64_t finished_copies{0};  // late copies of finished flows
  std::int64_t finished_fires{0};   // timers of finished flows
};

/// Drives HostTransport and ReferenceTransport with one seeded random
/// sequence and compares every return value, the order of retransmissions,
/// every counter and ledger getter, and the timers each schedules; adds
/// what the run exercised to `out`.
void run_differential(std::uint64_t seed, DiffCoverage* out) {
  NetworkConfig cfg = arq_config(seed);
  cfg.num_tors = 4;
  cfg.ports_per_tor = 2;
  cfg.data_fault.max_retries = 2;
  cfg.data_fault.rto_cap_epochs = 16.0;
  const Nanos rto = base_rto(cfg);
  EventQueue q_real;
  EventQueue q_ref;
  // Only the real transport sees the flows' progress: it releases a
  // finished flow's state, which the reference never does.
  FlowTable table;
  HostTransport real(cfg, &q_real, table);
  ReferenceTransport ref(cfg, &q_ref);
  TimerLog<HostTransport> log_real(&real);
  TimerLog<ReferenceTransport> log_ref(&ref);
  q_real.set_sink(&log_real);
  q_ref.set_sink(&log_ref);

  // Copies on the wire: (arrival, flow, seq, bytes).
  struct Copy {
    Nanos arrival;
    std::int32_t flow;
    std::uint32_t seq;
    Bytes bytes;
  };
  std::vector<Copy> wire;
  Rng rng(seed);
  auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + rng.next_below(hi - lo + 1);
  };
  // Each lane carries one flow at a time and starts the next once the
  // current one has sent all its bytes. Lanes 0-2 carry one flow for the
  // whole run (1000 to 1800 units each: long windows, long side lists, tie
  // stamps deep in the window); lanes 3-5 carry short flows that finish,
  // and the real transport releases their state, while others still run.
  constexpr int kLanes = 6;
  constexpr int kLongLanes = 3;
  auto endpoints = [](int lane) {
    // Lanes 0/3, 1/4 and 2/5 share a pair: a long and a short flow's
    // retransmissions interleave in one FIFO.
    const TorId src = lane % 3;
    return std::pair<TorId, TorId>{src, static_cast<TorId>(src + 1)};
  };
  std::vector<std::int32_t> lane_flow(kLanes);
  std::vector<Bytes> lane_left(kLanes);  // the flow's bytes still unsent
  std::vector<int> lane_of;              // per flow
  Nanos now = 0;
  auto start_flow = [&](int lane) {
    const auto [src, dst] = endpoints(lane);
    const Bytes size =
        lane < kLongLanes ? Bytes{1'000'000'000} : uniform(1, 20'000);
    const auto id = static_cast<FlowId>(table.size());
    lane_flow[static_cast<std::size_t>(lane)] =
        table.add(Flow{id, src, dst, size, now, 0});
    lane_left[static_cast<std::size_t>(lane)] = size;
    lane_of.push_back(lane);
  };
  for (int lane = 0; lane < kLanes; ++lane) start_flow(lane);
  // Loss rate, latency spread and duplication vary by seed so some runs
  // abandon flows and others recover everything.
  const double drop = 0.05 + 0.3 * rng.next_double();
  // A lane in an outage loses every copy, so its flows' expiries run up
  // to max_retries and abandon them; copies already on the wire land
  // later.
  std::vector<Nanos> outage_until(kLanes, 0);
  auto send = [&](std::int32_t flow, std::uint32_t seq, Bytes bytes,
                  Nanos now) {
    const int lane = lane_of[static_cast<std::size_t>(flow)];
    if (now < outage_until[static_cast<std::size_t>(lane)] ||
        rng.next_double() < drop) {
      return;
    }
    const auto latency = static_cast<Nanos>(rng.next_double() * 1.5 *
                                            static_cast<double>(rto));
    wire.push_back(Copy{now + latency, flow, seq, bytes});
    if (rng.next_double() < 0.05) {  // a duplicated copy
      wire.push_back(Copy{now + 2 * latency + 1, flow, seq, bytes});
    }
  };

  DiffCoverage& cov = *out;
  auto check_state = [&](Nanos now) {
    ASSERT_EQ(real.unresolved_bytes(), ref.unresolved_bytes()) << now;
    ASSERT_EQ(real.delivered_bytes(), ref.delivered_bytes()) << now;
    ASSERT_EQ(real.abandoned_bytes(), ref.abandoned_bytes()) << now;
    ASSERT_EQ(real.retx_backlog_bytes(), ref.retx_backlog_bytes()) << now;
    ASSERT_EQ(real.retransmitted_bytes(), ref.retransmitted_bytes()) << now;
    ASSERT_EQ(real.spurious_retx(), ref.spurious_retx()) << now;
    ASSERT_EQ(real.rto_fires(), ref.rto_fires()) << now;
    ASSERT_EQ(real.max_backoff_reached(), ref.max_backoff_reached()) << now;
    ASSERT_EQ(real.abandoned_units(), ref.abandoned_units()) << now;
    for (TorId s = 0; s < cfg.num_tors; ++s) {
      ASSERT_EQ(real.has_retx_from(s), ref.has_retx_from(s)) << now;
      for (TorId d = 0; d < cfg.num_tors; ++d) {
        ASSERT_EQ(real.has_retx(s, d), ref.has_retx(s, d)) << now;
      }
    }
    ASSERT_EQ(log_real.fires, log_ref.fires) << now;
    ASSERT_EQ(q_real.size(), q_ref.size()) << now;
    ASSERT_EQ(q_real.next_non_arrival_time(), q_ref.next_non_arrival_time())
        << now;
  };

  for (int step = 0; step < 4'000; ++step) {
    now += static_cast<Nanos>(uniform(0, 3)) * (rto / 16);
    // Timers first, as the fabrics run every event due by now before
    // serving the slot.
    q_real.run_until(now);
    q_ref.run_until(now);
    for (Nanos& until : outage_until) {
      if (rng.next_double() < 0.002) until = now + uniform(10, 40) * rto;
    }
    if (rng.next_double() < 0.5) {  // boundaries flush acks, not every step
      real.flush_acks(now);
      ref.flush_acks(now);
    }
    // Arrived copies land in random order (reordering across and within
    // flows).
    std::vector<Copy> landed;
    std::size_t keep = 0;
    for (const Copy& c : wire) {
      if (c.arrival <= now) {
        landed.push_back(c);
      } else {
        wire[keep++] = c;
      }
    }
    wire.resize(keep);
    for (std::size_t i = landed.size(); i > 1; --i) {
      std::swap(landed[i - 1],
                landed[static_cast<std::size_t>(uniform(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (const Copy& c : landed) {
      const bool finished = !real.tracks(c.flow);
      const bool first = real.on_deliver(c.flow, c.seq, c.bytes, now);
      ASSERT_EQ(first, ref.on_deliver(c.flow, c.seq, c.bytes, now));
      if (first) {
        table.credit(c.flow, c.bytes, now);  // as the delivery flush does
      } else {
        ++cov.spurious;
        cov.finished_copies += finished;
      }
    }
    // Sends at this instant, retransmissions and fresh units interleaved
    // in random order, several per lane.
    std::vector<bool> retx_now(table.size(), false);
    const int sends = static_cast<int>(uniform(0, 6));
    for (int k = 0; k < sends; ++k) {
      const auto lane = static_cast<int>(uniform(0, kLanes - 1));
      const auto [src, dst] = endpoints(lane);
      if (rng.next_double() < 0.5 && ref.has_retx(src, dst)) {
        ASSERT_TRUE(real.has_retx(src, dst));
        const HostTransport::RetxChunk a = real.take_retx(src, dst, now);
        const HostTransport::RetxChunk b = ref.take_retx(src, dst, now);
        ASSERT_EQ(std::tie(a.flow, a.dst, a.bytes, a.seq),
                  std::tie(b.flow, b.dst, b.bytes, b.seq));
        retx_now[static_cast<std::size_t>(a.flow)] = true;
        ++cov.retx;
        send(a.flow, a.seq, a.bytes, now);
        continue;
      }
      const std::int32_t flow = lane_flow[static_cast<std::size_t>(lane)];
      Bytes& left = lane_left[static_cast<std::size_t>(lane)];
      const Bytes bytes = std::min(uniform(1, 1'500), left);
      const std::uint32_t seq = real.on_transmit(flow, src, dst, bytes, now);
      ASSERT_EQ(seq, ref.on_transmit(flow, src, dst, bytes, now));
      if (static_cast<std::size_t>(flow) < retx_now.size() &&
          retx_now[static_cast<std::size_t>(flow)]) {
        ++cov.same_now_retx_then_fresh;
      }
      send(flow, seq, bytes, now);
      left -= bytes;
      if (left == 0) start_flow(lane);
    }
    check_state(now);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const auto& [when, flow, moved] : log_real.fires) {
    ++(moved ? cov.genuine_fires : cov.stale_fires);
  }
  cov.abandoned += real.abandoned_units();
  cov.finished_fires += log_real.finished_fires;
  // The pool holds exactly the tracked flows; a released flow is done.
  std::size_t tracked = 0;
  for (std::size_t flow = 0; flow < table.size(); ++flow) {
    const auto f = static_cast<std::int32_t>(flow);
    tracked += real.tracks(f);
    cov.finished += table.done(f) && !real.tracks(f);
  }
  EXPECT_EQ(real.footprint().flows, tracked);
}

TEST(HostTransport, MatchesThePerEntryInflightReference) {
  DiffCoverage total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, &total);
    if (HasFatalFailure()) return;
  }
  // The sequences must have exercised every path the side list changes.
  EXPECT_GT(total.stale_fires, 0);
  EXPECT_GT(total.genuine_fires, 0);
  EXPECT_GT(total.retx, 0);
  EXPECT_GT(total.same_now_retx_then_fresh, 0);
  EXPECT_GT(total.spurious, 0);
  EXPECT_GT(total.abandoned, 0);
  // ... and every path a finished flow's released state takes.
  EXPECT_GT(total.finished, 0);
  EXPECT_GT(total.finished_copies, 0);
  EXPECT_GT(total.finished_fires, 0);
}

TEST(HostTransport, RetxFifoIsServedInOrderAcrossFlowsOfAPair) {
  NetworkConfig cfg = arq_config();
  const Nanos rto = base_rto(cfg);
  EventQueue q;
  const FlowTable flows = open_flows();
  HostTransport t(cfg, &q, flows);
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
/// abandoned, the ledger returns to zero unresolved bytes and the
/// transport holds no flow state. The
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
  ASSERT_NE(fabric.data_channel(), nullptr);
  EXPECT_GT(fabric.data_channel()->dropped(), 0)
      << "the channel really dropped chunks";
  EXPECT_GT(t->retransmitted_bytes(), 0);
  EXPECT_GT(t->rto_fires(), 0);
  EXPECT_EQ(t->abandoned_bytes(), 0);
  EXPECT_EQ(t->unresolved_bytes(), 0) << "drained: nothing left in flight";
  const HostTransport::Footprint fp = t->footprint();
  EXPECT_EQ(fp.flows, 0u) << "every flow finished, so no state is held";
  EXPECT_EQ(fp.units, 0u);
  EXPECT_EQ(fp.inflight, 0u);
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
