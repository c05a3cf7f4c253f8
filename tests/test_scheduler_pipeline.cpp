// Exercises the in-band pipelined control plane (Fig. 4) in isolation with
// a scripted demand view: request at epoch e, grant at e+1, accept/matches
// at e+2 — the paper's ~2-epoch scheduling delay.
#include <gtest/gtest.h>

#include <memory>

#include "core/negotiator_scheduler.h"
#include "stats/resilience_recorder.h"
#include "topo/topology.h"

namespace negotiator {
namespace {

class FakeDemand : public DemandView {
 public:
  explicit FakeDemand(int n) : n_(n), pending_(n * n, 0), active_(n) {}

  void set(TorId s, TorId d, Bytes bytes) {
    pending_[static_cast<std::size_t>(s) * n_ + d] = bytes;
    if (bytes > 0) {
      active_[static_cast<std::size_t>(s)].insert(d);
    } else {
      active_[static_cast<std::size_t>(s)].erase(d);
    }
    if (active_[static_cast<std::size_t>(s)].empty()) {
      active_sources_.erase(s);
    } else {
      active_sources_.insert(s);
    }
  }

  Bytes pending_bytes(TorId s, TorId d) const override {
    return pending_[static_cast<std::size_t>(s) * n_ + d];
  }
  Bytes elephant_bytes(TorId s, TorId d) const override {
    return pending_bytes(s, d);
  }
  Nanos weighted_hol_delay(TorId, TorId, Nanos, double) const override {
    return 0;
  }
  Nanos oldest_hol_enqueue(TorId, TorId) const override { return kNeverNs; }
  Bytes cumulative_arrived(TorId s, TorId d) const override {
    return pending_bytes(s, d);
  }
  Bytes relay_pending(TorId, TorId) const override { return 0; }
  Bytes relay_queue_total(TorId) const override { return 0; }
  const ActiveSet& relay_active_destinations(TorId) const override {
    static const ActiveSet kEmpty;
    return kEmpty;
  }
  const ActiveSet& active_destinations(TorId s) const override {
    return active_[static_cast<std::size_t>(s)];
  }
  const ActiveSet& active_sources() const override { return active_sources_; }

 private:
  int n_;
  std::vector<Bytes> pending_;
  std::vector<ActiveSet> active_;
  ActiveSet active_sources_;
};

struct Harness {
  explicit Harness(NetworkConfig cfg_in)
      : cfg(cfg_in),
        topo(cfg),
        faults(cfg.num_tors, cfg.ports_per_tor),
        demand(cfg.num_tors) {
    scheduler = make_negotiator_scheduler(cfg, topo, Rng(1));
  }

  /// One epoch: pipeline stages + full (lossless) all-to-all delivery.
  void step(bool deliver = true) {
    scheduler->begin_epoch(epoch, epoch * cfg.epoch_length_ns(), demand,
                           faults);
    if (deliver) {
      for (TorId s = 0; s < cfg.num_tors; ++s) {
        for (TorId d = 0; d < cfg.num_tors; ++d) {
          if (s != d) scheduler->deliver_pair(s, d, true);
        }
      }
    }
    ++epoch;
  }

  NetworkConfig cfg;
  FlatTopology topo;
  FaultPlane faults;
  FakeDemand demand;
  std::unique_ptr<NegotiatorScheduler> scheduler;
  std::int64_t epoch{0};
};

NetworkConfig small_config() {
  NetworkConfig c;
  c.num_tors = 8;
  c.ports_per_tor = 4;
  return c;
}

TEST(SchedulerPipeline, TwoEpochSchedulingDelay) {
  Harness h(small_config());
  h.demand.set(0, 3, 100'000);
  h.step();  // epoch 0: request goes out
  EXPECT_TRUE(h.scheduler->matches().empty());
  h.step();  // epoch 1: grant goes out
  EXPECT_TRUE(h.scheduler->matches().empty());
  h.step();  // epoch 2: accept -> matches usable this epoch
  // With a single requester the destination grants it every port (Fig. 3a)
  // and every plane is accepted.
  ASSERT_EQ(h.scheduler->matches().size(), 4u);
  for (const Match& m : h.scheduler->matches()) {
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.dst, 3);
  }
}

TEST(SchedulerPipeline, BelowThresholdNeverRequests) {
  // §3.4.1: requests only when pending exceeds three piggyback payloads.
  const NetworkConfig cfg = small_config();
  Harness h(cfg);
  h.demand.set(0, 3, 3 * cfg.piggyback_payload_bytes());
  for (int i = 0; i < 6; ++i) h.step();
  EXPECT_TRUE(h.scheduler->matches().empty());
}

TEST(SchedulerPipeline, JustAboveThresholdRequests) {
  const NetworkConfig cfg = small_config();
  Harness h(cfg);
  h.demand.set(0, 3, 3 * cfg.piggyback_payload_bytes() + 1);
  h.step();
  h.step();
  h.step();
  EXPECT_GE(h.scheduler->matches().size(), 1u);
}

TEST(SchedulerPipeline, WithoutPiggybackAnyPendingByteRequests) {
  NetworkConfig cfg = small_config();
  cfg.piggyback = false;
  Harness h(cfg);
  h.demand.set(0, 3, 1);
  h.step();
  h.step();
  h.step();
  EXPECT_GE(h.scheduler->matches().size(), 1u);
}

TEST(SchedulerPipeline, LostRequestMeansNoMatch) {
  Harness h(small_config());
  h.demand.set(0, 3, 100'000);
  h.step(/*deliver=*/false);  // epoch 0's messages all lost
  h.demand.set(0, 3, 0);      // demand gone before any retry
  h.step();
  h.step();
  EXPECT_TRUE(h.scheduler->matches().empty());
}

TEST(SchedulerPipeline, PipelinesOverlappingProcesses) {
  // Persistent demand: from epoch 2 on, every epoch carries a match
  // (processes started at e-2 keep completing).
  Harness h(small_config());
  h.demand.set(0, 3, 1'000'000);
  h.step();
  h.step();
  for (int e = 2; e < 8; ++e) {
    h.step();
    EXPECT_GE(h.scheduler->matches().size(), 1u) << "epoch " << e;
  }
}

TEST(SchedulerPipeline, StatelessOverSchedulingProducesMatchesForDrainedQueue) {
  // §3.5 "stateless scheduling": requests sent in consecutive epochs for
  // the same backlog produce matches even after the data would be gone.
  Harness h(small_config());
  h.demand.set(0, 3, 100'000);
  h.step();  // request 1
  h.step();  // request 2 (still pending), grant 1
  h.demand.set(0, 3, 0);  // queue drained before accept
  h.step();  // matches from request 1 arrive anyway
  EXPECT_GE(h.scheduler->matches().size(), 1u)
      << "the link is scheduled regardless — the over-scheduling cost";
}

TEST(SchedulerPipeline, ManyPairsYieldConflictFreeMatchingEveryEpoch) {
  NetworkConfig cfg;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 4;
  for (TopologyKind kind : {TopologyKind::kParallel, TopologyKind::kThinClos}) {
    cfg.topology = kind;
    Harness h(cfg);
    for (TorId s = 0; s < 16; ++s) {
      for (TorId d = 0; d < 16; ++d) {
        if (s != d) h.demand.set(s, d, 1'000'000);
      }
    }
    for (int e = 0; e < 10; ++e) {
      h.step();
      std::set<std::pair<TorId, PortId>> tx, rx;
      for (const Match& m : h.scheduler->matches()) {
        EXPECT_TRUE(tx.insert({m.src, m.tx_port}).second);
        EXPECT_TRUE(rx.insert({m.dst, m.rx_port}).second);
      }
      if (e >= 2) {
        // Under full contention the fabric should be well matched.
        EXPECT_GE(h.scheduler->matches().size(), 16u * 4u / 2u);
      }
    }
  }
}

TEST(SchedulerPipeline, ExcludedPortsNeverMatched) {
  Harness h(small_config());
  // Exclude rx port 1 of ToR 3 and tx port 2 of ToR 0 via the fault plane.
  for (int i = 0; i < 8; ++i) {
    h.faults.observe_ingress(3, 1, false);
    h.faults.observe_egress(0, 2, false);
  }
  ResilienceRecorder rec(h.cfg.num_tors, h.cfg.ports_per_tor);
  h.faults.end_epoch(rec, 0);
  EXPECT_EQ(rec.exclusions(), 2);
  for (TorId d = 1; d < 8; ++d) h.demand.set(0, d, 1'000'000);
  for (int e = 0; e < 6; ++e) {
    h.step();
    for (const Match& m : h.scheduler->matches()) {
      EXPECT_FALSE(m.src == 0 && m.tx_port == 2);
      EXPECT_FALSE(m.dst == 3 && m.rx_port == 1);
    }
  }
}

TEST(SchedulerPipeline, MatchRatioCountersPlausible) {
  Harness h(small_config());
  for (TorId s = 0; s < 8; ++s) {
    for (TorId d = 0; d < 8; ++d) {
      if (s != d) h.demand.set(s, d, 1'000'000);
    }
  }
  h.step();
  h.step();
  EXPECT_GT(h.scheduler->epoch_grants(), 0u);
  h.step();
  EXPECT_GT(h.scheduler->epoch_accepts(), 0u);
  EXPECT_LE(h.scheduler->epoch_accepts(), 8u * 4u);
}

}  // namespace
}  // namespace negotiator
