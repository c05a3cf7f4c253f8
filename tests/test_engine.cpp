// End-to-end integration tests of the NegotiaToR fabric on small networks.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/runner.h"
#include "topo/predefined_schedule.h"
#include "workload/all_to_all.h"
#include "workload/generator.h"
#include "workload/incast.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

NetworkConfig small(TopologyKind topo) {
  NetworkConfig c;
  c.num_tors = 16;
  c.ports_per_tor = 4;
  c.topology = topo;
  return c;
}

Flow one_flow(TorId src, TorId dst, Bytes size, Nanos arrival, FlowId id = 1,
              int group = 0) {
  Flow f;
  f.id = id;
  f.src = src;
  f.dst = dst;
  f.size = size;
  f.arrival = arrival;
  f.group = group;
  return f;
}

TEST(Engine, SingleMouseDeliveredByPiggyback) {
  // A sub-595 B flow needs no scheduling at all: the next predefined phase
  // carries it whole (§3.4.1).
  auto fab = make_fabric(small(TopologyKind::kParallel));
  fab->add_flow(one_flow(0, 5, 400, 0));
  fab->run_until(3 * fab->config().epoch_length_ns());
  ASSERT_EQ(fab->fct().completed(), 1u);
  const FctSample& s = fab->fct().samples()[0];
  // Must finish within ~1 epoch + propagation: far below the 2-epoch
  // scheduling delay.
  EXPECT_LT(s.fct, fab->config().epoch_length_ns() +
                       fab->config().propagation_delay_ns + 1'000);
}

TEST(Engine, MouseBypassOnBothTopologies) {
  for (auto topo : {TopologyKind::kParallel, TopologyKind::kThinClos}) {
    auto fab = make_fabric(small(topo));
    fab->add_flow(one_flow(3, 9, 500, 100));
    fab->run_until(4 * fab->config().epoch_length_ns());
    ASSERT_EQ(fab->fct().completed(), 1u) << to_string(topo);
  }
}

TEST(Engine, LargerFlowUsesScheduledPhase) {
  auto fab = make_fabric(small(TopologyKind::kParallel));
  const Bytes size = 200'000;
  fab->add_flow(one_flow(0, 5, size, 0));
  fab->run_until(40 * fab->config().epoch_length_ns());
  ASSERT_EQ(fab->fct().completed(), 1u);
  const FctSample& s = fab->fct().samples()[0];
  // One match moves 30 * 1115 B per epoch; a 200 KB flow needs several
  // epochs, after the ~2-epoch scheduling delay.
  EXPECT_GT(s.fct, 2 * fab->config().epoch_length_ns());
  EXPECT_EQ(fab->total_backlog(), 0);
}

TEST(Engine, DeliveredBytesConserved) {
  NetworkConfig cfg = small(TopologyKind::kParallel);
  Runner runner(cfg);
  const auto sizes = SizeDistribution::hadoop();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.4, Rng(7));
  const Nanos dur = 300'000;
  auto flows = gen.generate(0, dur);
  Bytes offered = 0;
  for (const Flow& f : flows) offered += f.size;
  runner.add_flows(flows);
  runner.fabric().goodput().set_measure_interval(0, 100 * dur);
  runner.fabric().run_until(100 * dur);  // generous drain time
  EXPECT_EQ(runner.fabric().goodput().delivered_bytes(), offered);
  EXPECT_EQ(runner.fabric().total_backlog(), 0);
  EXPECT_EQ(runner.fabric().fct().completed(), flows.size());
}

TEST(Engine, FctNeverBelowPropagationDelay) {
  NetworkConfig cfg = small(TopologyKind::kParallel);
  Runner runner(cfg);
  const auto sizes = SizeDistribution::google();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.3, Rng(8));
  runner.add_flows(gen.generate(0, 200'000));
  runner.fabric().run_until(5'000'000);
  ASSERT_GT(runner.fabric().fct().completed(), 0u);
  for (const FctSample& s : runner.fabric().fct().samples()) {
    EXPECT_GE(s.fct, cfg.propagation_delay_ns);
  }
}

TEST(Engine, InOrderPerPairDelivery) {
  // §3.6.5: two flows of one pair complete in arrival order when sizes are
  // equal (FIFO per level).
  auto fab = make_fabric(small(TopologyKind::kParallel));
  fab->add_flow(one_flow(0, 5, 900, 0, /*id=*/1));
  fab->add_flow(one_flow(0, 5, 900, 10, /*id=*/2));
  fab->run_until(6 * fab->config().epoch_length_ns());
  ASSERT_EQ(fab->fct().completed(), 2u);
  Nanos finish1 = 0, finish2 = 0;
  for (const FctSample& s : fab->fct().samples()) {
    if (s.flow == 1) finish1 = s.arrival + s.fct;
    if (s.flow == 2) finish2 = s.arrival + s.fct;
  }
  EXPECT_LT(finish1, finish2);
}

TEST(Engine, IncastCompletesFast) {
  // The bypass handles incasts: every pair gets one piggyback packet per
  // epoch, so a 1 KB-per-source incast finishes in ~2 epochs regardless of
  // degree (Fig. 7a).
  NetworkConfig cfg = small(TopologyKind::kParallel);
  Runner runner(cfg);
  Rng rng(9);
  runner.add_flows(make_incast(cfg.num_tors, 10, 1'000, 0, 1'000, rng, 0, 5));
  const Nanos deadline = 30 * cfg.epoch_length_ns();
  const Nanos finish = runner.finish_time_of_group(5, 10, deadline);
  ASSERT_NE(finish, kNeverNs);
  EXPECT_LT(finish - 1'000, 3 * cfg.epoch_length_ns() +
                                cfg.propagation_delay_ns);
}

TEST(Engine, AllToAllDrainsCompletely) {
  NetworkConfig cfg = small(TopologyKind::kThinClos);
  Runner runner(cfg);
  runner.add_flows(make_all_to_all(cfg.num_tors, 5'000, 0, 0, 2));
  const Nanos finish = runner.finish_time_of_group(
      2, static_cast<std::size_t>(16 * 15), 400 * cfg.epoch_length_ns());
  EXPECT_NE(finish, kNeverNs);
  EXPECT_EQ(runner.fabric().total_backlog(), 0);
}

TEST(Engine, GoodputTracksLoad) {
  for (double load : {0.2, 0.6}) {
    NetworkConfig cfg = small(TopologyKind::kParallel);
    Runner runner(cfg);
    const auto sizes = SizeDistribution::google();  // light-tailed: drains
    WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), load,
                          Rng(10));
    const Nanos dur = 2'000'000;
    runner.add_flows(gen.generate(0, dur));
    const RunResult r = runner.run(dur, dur / 4);
    EXPECT_NEAR(r.goodput, load, load * 0.25) << "load " << load;
  }
}

TEST(Engine, MatchRatioNearTheoryUnderSaturation) {
  // §3.2.2 / Fig. 14: E[Y] = 1 - (1 - 1/n)^n.
  NetworkConfig cfg;  // full 128-ToR fabric for the theory comparison
  cfg.num_tors = 32;
  cfg.ports_per_tor = 4;
  Runner runner(cfg);
  const auto sizes = SizeDistribution::hadoop();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 1.0, Rng(11));
  const Nanos dur = 1'500'000;
  runner.add_flows(gen.generate(0, dur));
  const RunResult r = runner.run(dur, dur / 2);
  const double theory = 1.0 - std::pow(1.0 - 1.0 / 32.0, 32);
  EXPECT_NEAR(r.mean_match_ratio, theory, 0.08);
}

TEST(Engine, PiggybackDisabledStillDelivers) {
  NetworkConfig cfg = small(TopologyKind::kParallel);
  cfg.piggyback = false;
  auto fab = make_fabric(cfg);
  fab->add_flow(one_flow(0, 5, 400, 0));
  fab->run_until(10 * cfg.epoch_length_ns());
  ASSERT_EQ(fab->fct().completed(), 1u);
  // Without the bypass the mouse pays the full scheduling delay.
  EXPECT_GT(fab->fct().samples()[0].fct, 2 * cfg.epoch_length_ns());
}

TEST(Engine, RunnerResultFields) {
  NetworkConfig cfg = small(TopologyKind::kParallel);
  Runner runner(cfg);
  const auto sizes = SizeDistribution::google();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.3, Rng(12));
  runner.add_flows(gen.generate(0, 500'000));
  const RunResult r = runner.run(500'000);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.mice.count, 0u);
  EXPECT_GT(r.goodput, 0.0);
  EXPECT_EQ(r.epoch_ns, cfg.epoch_length_ns());
  EXPECT_GT(r.mice.p99_ns, r.mice.p50_ns * 0.99);
  EXPECT_GE(r.mice.max_ns, r.mice.p99_ns);
}

TEST(Engine, RejectsFlowsArrivingInThePast) {
  auto fab = make_fabric(small(TopologyKind::kParallel));
  fab->run_until(100'000);
  EXPECT_DEATH(fab->add_flow(one_flow(0, 1, 100, 50)), "past");
}

TEST(Engine, RunUntilNeverMovesTheClockBackOnBothFabrics) {
  // run_until(t) leaves now() at or past t (a fabric finishes the epoch or
  // slot it is in), never moves the clock back, and has fired every event
  // due by now(): a link toggle due exactly at t included.
  for (auto kind : {SchedulerKind::kNegotiator, SchedulerKind::kOblivious}) {
    NetworkConfig cfg = small(TopologyKind::kParallel);
    cfg.scheduler = kind;
    auto fab = make_fabric(cfg);
    // An epoch boundary, so run_until(t - 1) stops short of it.
    const Nanos t = 2 * cfg.epoch_length_ns();
    fab->schedule_link_event(t, 3, 1, LinkDirection::kEgress, true);
    fab->run_until(t - 1);
    ASSERT_LT(fab->now(), t) << to_string(kind);
    EXPECT_TRUE(fab->links().is_up(3, 1, LinkDirection::kEgress));
    Nanos last = fab->now();
    for (const Nanos target : {t, t / 2, t, t + 5'000}) {
      fab->run_until(target);
      EXPECT_GE(fab->now(), target) << to_string(kind) << " at " << target;
      EXPECT_GE(fab->now(), last) << to_string(kind) << " at " << target;
      EXPECT_EQ(fab->links().is_up(3, 1, LinkDirection::kEgress),
                fab->now() < t)
          << to_string(kind) << " at " << target;
      last = fab->now();
    }
    EXPECT_FALSE(fab->links().is_up(3, 1, LinkDirection::kEgress));
  }
}

TEST(Engine, PredefinedPhaseVisitsNoStaleConnections) {
  // An otherwise idle fabric gets one mouse mid-way through epoch 2's
  // predefined phase, after its scheduler ran, so nothing but piggyback
  // carries it and nothing else is ever gathered. The flow's pair marks
  // its connections in the slots still ahead. Dense-scan oracle per
  // epoch: an unhealthy slot visits every non-idle connection; a healthy
  // slot visits exactly the marked ones, i.e. the pair's connections from
  // the arrival's slot on in epoch 2 and none after it. With a link down
  // through epoch 2's predefined phase, the dense scan carries the mouse
  // and must drop the marks: the epochs after it run dense slots while
  // the fault plane settles, then healthy slots that visit nothing.
  constexpr std::int64_t kEpoch = 2;
  constexpr int kArrivalSlot = 1;  // the flow fires before slot 1 starts
  for (auto topo : {TopologyKind::kParallel, TopologyKind::kThinClos}) {
    const NetworkConfig cfg = small(topo);
    const FlatTopology flat(cfg);
    const PredefinedSchedule sched(flat);
    const auto rotation_of = [](std::int64_t e) {
      return static_cast<int>((e * 17) & 0x3fffffff);
    };
    // dense[j]: visits of a dense scan over slots [0, j) under `rotation`.
    const auto dense_prefix = [&](int rotation) {
      std::vector<std::uint64_t> dense(1, 0);
      for (int slot = 0; slot < sched.slots(); ++slot) {
        std::uint64_t visits = dense.back();
        for (TorId s = 0; s < cfg.num_tors; ++s) {
          for (PortId p = 0; p < cfg.ports_per_tor; ++p) {
            visits += sched.dst_of(s, p, slot, rotation) != kInvalidTor;
          }
        }
        dense.push_back(visits);
      }
      return dense;
    };
    // A pair that meets after the arrival slot under epoch 2's rotation.
    const int rotation = rotation_of(kEpoch);
    const TorId src = 0;
    TorId dst = 1;
    while (sched.pair_connection(src, dst, rotation).slot <= kArrivalSlot) {
      ++dst;
    }
    std::uint64_t marked = 0;
    sched.for_each_pair_connection(
        src, dst, rotation, [&](const PredefinedSchedule::Connection& c) {
          marked += c.slot >= kArrivalSlot ? 1 : 0;
        });
    ASSERT_GE(marked, 1u);

    for (const bool link_down : {false, true}) {
      auto fab = std::make_unique<NegotiatorFabric>(cfg);
      const Nanos epoch_ns = cfg.epoch_length_ns();
      const Nanos phase_ns = static_cast<Nanos>(cfg.predefined_slots()) *
                             cfg.epoch.predefined_slot_ns();
      fab->add_flow(one_flow(src, dst, 400, kEpoch * epoch_ns + 1));
      if (link_down) {
        // A link neither endpoint uses, down for the predefined phase.
        fab->schedule_link_event(kEpoch * epoch_ns, cfg.num_tors - 1, 0,
                                 LinkDirection::kEgress, true);
        fab->schedule_link_event(kEpoch * epoch_ns + phase_ns,
                                 cfg.num_tors - 1, 0, LinkDirection::kEgress,
                                 false);
      }
      int quiet_epochs = 0;
      for (std::int64_t e = 0; e < kEpoch + 12; ++e) {
        const std::uint64_t before = fab->predefined_visits();
        fab->run_until((e + 1) * epoch_ns);
        const std::uint64_t visits = fab->predefined_visits() - before;
        const std::string where = std::string(to_string(topo)) + " epoch " +
                                  std::to_string(e) +
                                  (link_down ? " (link down)" : "");
        const std::vector<std::uint64_t> dense = dense_prefix(rotation_of(e));
        if (!link_down || e < kEpoch) {
          EXPECT_EQ(visits, e == kEpoch ? marked : 0u) << where;
        } else if (e == kEpoch) {
          EXPECT_EQ(visits, dense.back()) << where;
        } else {
          // Dense slots first (the fault plane settling), then healthy
          // slots with nothing marked.
          EXPECT_NE(std::find(dense.begin(), dense.end(), visits),
                    dense.end())
              << where << ": " << visits << " visits";
        }
        quiet_epochs = visits == 0 ? quiet_epochs + 1 : 0;
      }
      EXPECT_GE(quiet_epochs, 5) << to_string(topo);
      ASSERT_EQ(fab->fct().completed(), 1u) << to_string(topo);
      EXPECT_LT(fab->fct().samples()[0].fct, epoch_ns) << to_string(topo);
    }
  }
}

/// Every completion a run reports, plus its event count: two runs with
/// equal outcomes behaved identically.
struct Outcome {
  std::vector<std::array<std::int64_t, 5>> samples;
  std::uint64_t events;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome(FabricSim& fab) {
  Outcome out{{}, fab.events_executed()};
  for (const FctSample& s : fab.fct().samples()) {
    out.samples.push_back({s.flow, s.size, s.arrival, s.fct, s.group});
  }
  return out;
}

TEST(Admission, BatchingNeverChangesTheRun) {
  // Property: a trace of k sorted runs (each its own generator trace over
  // the same window, arrivals rounded to 1 us so equal-time ties are
  // common) runs identically on both fabrics whether it is admitted in one
  // add_flows call, one call per run, or flow by flow.
  const auto sizes = SizeDistribution::google();
  for (const SchedulerKind kind :
       {SchedulerKind::kNegotiator, SchedulerKind::kOblivious}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      NetworkConfig cfg = small(TopologyKind::kThinClos);
      cfg.scheduler = kind;
      Rng rng(seed);
      const int k = 2 + static_cast<int>(rng.next_below(4));
      std::vector<Flow> trace;
      std::vector<std::size_t> cuts{0};
      for (int r = 0; r < k; ++r) {
        WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.2,
                              rng.fork());
        for (Flow f : gen.generate(0, 100'000,
                                   static_cast<FlowId>(trace.size()), r)) {
          f.arrival = f.arrival / 1'000 * 1'000;
          trace.push_back(f);
        }
        cuts.push_back(trace.size());
      }
      ASSERT_GT(trace.size(), 20u);
      const std::span<const Flow> all(trace);
      auto run = [&](int mode) {
        auto fab = make_fabric(cfg);
        if (mode == 0) {
          fab->add_flows(all);
        } else if (mode == 1) {
          for (int r = 0; r < k; ++r) {
            fab->add_flows(all.subspan(cuts[r], cuts[r + 1] - cuts[r]));
          }
        } else {
          for (const Flow& f : all) fab->add_flow(f);
        }
        fab->run_until(3'000'000);
        EXPECT_EQ(fab->fct().completed(), trace.size());
        return outcome(*fab);
      };
      const Outcome one_call = run(0);
      EXPECT_EQ(one_call, run(1)) << "seed " << seed;
      EXPECT_EQ(one_call, run(2)) << "seed " << seed;
    }
  }
}

TEST(Admission, PerFlowFootprintIsPinned) {
  // Each admitted flow is stored once in the FlowTable and once as a
  // pending arrival, and the completion log is reserved for it at
  // admission; nothing else per flow. A re-added per-flow copy breaks
  // either the record sizes or the measured allocation below.
  static_assert(FlowTable::kBytesPerFlow <= 40);
  static_assert(EventQueue::kBytesPerArrival <= 12);
  static_assert(FctRecorder::kBytesPerCompletion <= 4);
  constexpr std::size_t kPerFlow = FlowTable::kBytesPerFlow +
                                   EventQueue::kBytesPerArrival +
                                   FctRecorder::kBytesPerCompletion;
  NetworkConfig cfg = small(TopologyKind::kParallel);
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), 0.5, Rng(3));
  const std::vector<Flow> flows = gen.generate(0, 2'000'000);
  ASSERT_GT(flows.size(), 2'000u);
  auto fab = make_fabric(cfg);
  auto allocated = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  const std::size_t before = allocated();
  fab->add_flows(flows);
  const std::size_t grown = allocated() - before;
  if (grown == 0) GTEST_SKIP() << "allocator does not report to mallinfo2";
  EXPECT_LE(grown, flows.size() * kPerFlow + 64 * 1024);
}

TEST(FlowTable, CreditSpanMatchesSequentialCredits) {
  // A slot's coalesced delivery span must advance the table and land
  // completion samples exactly as per-record credit() calls do — including
  // a flow appearing several times in one span and completing mid-span.
  FlowTable bulk;
  FlowTable seq;
  const FctRecorder& bulk_fct = bulk.fct();
  const FctRecorder& seq_fct = seq.fct();
  std::vector<int> idx;
  for (int i = 0; i < 4; ++i) {
    const Flow f = one_flow(0, 1 + i % 3, 1'000 * (i + 1), 10 * i, i, i % 2);
    const int bi = bulk.add(f);
    ASSERT_EQ(bi, seq.add(f));
    idx.push_back(bi);
  }
  // Flow 0 (1000 B) completes inside the first span; flow 3 never does.
  const DeliveryRecord span1[] = {{0, 1, 600}, {1, 2, 500}, {0, 1, 400},
                                  {3, 1, 900}};
  const DeliveryRecord span2[] = {{2, 3, 3'000}, {1, 2, 1'500}};
  bulk.credit_span(span1, 4, 1'000);
  bulk.credit_span(span2, 2, 2'000);
  bulk.credit_span(span1, 0, 3'000);  // empty span is a no-op
  for (const DeliveryRecord& r : span1) {
    seq.credit(static_cast<int>(r.flow), r.bytes, 1'000);
  }
  for (const DeliveryRecord& r : span2) {
    seq.credit(static_cast<int>(r.flow), r.bytes, 2'000);
  }
  for (const int i : idx) EXPECT_EQ(bulk.done(i), seq.done(i));
  ASSERT_EQ(bulk_fct.completed(), seq_fct.completed());
  ASSERT_EQ(bulk_fct.completed(), 3u);
  for (std::size_t i = 0; i < bulk_fct.completed(); ++i) {
    EXPECT_EQ(bulk_fct.samples()[i].flow, seq_fct.samples()[i].flow);
    EXPECT_EQ(bulk_fct.samples()[i].size, seq_fct.samples()[i].size);
    EXPECT_EQ(bulk_fct.samples()[i].arrival, seq_fct.samples()[i].arrival);
    EXPECT_EQ(bulk_fct.samples()[i].fct, seq_fct.samples()[i].fct);
    EXPECT_EQ(bulk_fct.samples()[i].group, seq_fct.samples()[i].group);
  }
}

}  // namespace
}  // namespace negotiator
