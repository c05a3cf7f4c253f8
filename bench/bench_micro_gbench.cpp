// Google-benchmark microbenchmarks of the scheduler hot paths: ring
// arbitration, the GRANT and ACCEPT steps, queue operations, workload
// sampling and set-up (building a size distribution, drawing the incast
// mix), the end-host ARQ's per-unit cycle, the flow-arrival stream's
// admit-and-drain, and a full fabric epoch.
// These back §3.6.2's practicality argument with concrete per-operation
// costs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "core/matching.h"
#include "core/ring.h"
#include "engine/flow_table.h"
#include "engine/network.h"
#include "sim/event_queue.h"
#include "topo/topology.h"
#include "tor/dest_queue.h"
#include "tor/host_transport.h"
#include "workload/generator.h"
#include "workload/incast.h"
#include "workload/size_distribution.h"

namespace {

using namespace negotiator;

void BM_RingPick(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<TorId> members;
  for (TorId t = 0; t < n; ++t) members.push_back(t);
  Rng rng(1);
  RoundRobinRing ring(members, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.pick([](TorId t) { return t % 3 == 0; }));
  }
}
BENCHMARK(BM_RingPick)->Arg(16)->Arg(128);

/// The topology of a GRANT/ACCEPT benchmark: range(0) picks the kind
/// (0 parallel, 1 thin-clos), range(1) the ToR count; 8 ports per ToR.
FlatTopology step_topology(benchmark::State& state) {
  const TopologyKind kind = state.range(0) == 0 ? TopologyKind::kParallel
                                                : TopologyKind::kThinClos;
  state.SetLabel(to_string(kind));
  return FlatTopology(kind, static_cast<int>(state.range(1)), 8);
}

void BM_GrantStep(benchmark::State& state) {
  const FlatTopology topo = step_topology(state);
  const int n = topo.num_tors();
  Rng rng(2);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  std::vector<RequestMsg> requests;
  for (TorId s = 1; s < n; s += 2) {
    RequestMsg r;
    r.src = s;
    requests.push_back(r);
  }
  const std::vector<bool> eligible(8, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.grant(0, requests, eligible, 33'450));
  }
}
BENCHMARK(BM_GrantStep)
    ->ArgNames({"thin_clos", "tors"})
    ->ArgsProduct({{0, 1}, {32, 128, 512}});

void BM_AcceptStep(benchmark::State& state) {
  const FlatTopology topo = step_topology(state);
  Rng rng(3);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  std::vector<GrantMsg> grants;
  for (int i = 0; i < 16; ++i) {
    GrantMsg g;
    g.dst = static_cast<TorId>(i + 1);
    g.rx_port = static_cast<PortId>(i % 8);
    grants.push_back(g);
  }
  const std::vector<bool> eligible(8, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.accept(0, grants, eligible));
  }
}
BENCHMARK(BM_AcceptStep)
    ->ArgNames({"thin_clos", "tors"})
    ->ArgsProduct({{0, 1}, {128, 512}});

void BM_DestQueuePacketCycle(benchmark::State& state) {
  DestQueueSet q(1, 3);
  PiasConfig pias;
  for (auto _ : state) {
    q.enqueue_flow(0, 1, 10'000, 0, pias);
    while (auto p = q.dequeue_packet(0, 1'115)) {
      benchmark::DoNotOptimize(p->bytes);
    }
  }
}
BENCHMARK(BM_DestQueuePacketCycle);

void BM_WorkloadSampling(benchmark::State& state) {
  const auto sizes = SizeDistribution::hadoop();
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sizes.sample(rng));
  }
}
BENCHMARK(BM_WorkloadSampling);

void BM_SizeDistributionBuild(benchmark::State& state) {
  // The preset's anchors plus its 200 000-step mean integration.
  for (auto _ : state) {
    benchmark::DoNotOptimize(SizeDistribution::hadoop().mean_bytes());
  }
}
BENCHMARK(BM_SizeDistributionBuild)->Unit(benchmark::kMillisecond);

void BM_IncastMix(benchmark::State& state) {
  // The incast benchmark workload's mix: Fig. 13a's degree-20 incasts of
  // 1 KB flows at 2% of the bandwidth of 128 ToRs for 4 ms (~511 k flows).
  NetworkConfig cfg;
  cfg.num_tors = 128;
  std::int64_t flows = 0;
  for (auto _ : state) {
    Rng rng(10);
    const auto mix = make_incast_mix(cfg.num_tors, 20, 1_KB, 0.02,
                                     cfg.host_rate(), 0, 4 * kMilli, rng);
    flows += static_cast<std::int64_t>(mix.size());
    benchmark::DoNotOptimize(mix.data());
  }
  state.SetItemsProcessed(flows);
}
BENCHMARK(BM_IncastMix)->Unit(benchmark::kMillisecond);

/// Forwards ARQ timer expiries to the transport; no other event kind is
/// scheduled here.
class TransportTimerSink final : public EventSink {
 public:
  explicit TransportTimerSink(HostTransport* t) : t_(t) {}
  void on_flow_arrival(const FlowArrivalEvent&, Nanos) override {}
  void on_link_toggle(const LinkToggleEvent&, Nanos) override {}
  void on_transport_timer(const TransportTimerEvent& e, Nanos now) override {
    t_->on_timer(e.flow_index, now);
  }

 private:
  HostTransport* t_;
};

void BM_TransportUnitCycle(benchmark::State& state) {
  // One ARQ unit per iteration, round-robin over 16 flows of a 16-ToR
  // fabric: transmit -> deliver -> flush_acks. The lossy variant (arg 1)
  // drops one unit in 20; its RTO fires off the event queue and the
  // retransmission is taken and delivered, so the per-unit cost includes
  // the timer and retransmit paths.
  const bool lossy = state.range(0) != 0;
  NetworkConfig cfg;
  cfg.num_tors = 16;
  cfg.data_fault.enabled = true;
  cfg.data_fault.arq = true;
  constexpr int kFlows = 16;
  constexpr Bytes kUnit = 1'000;
  // About ten units of each flow in flight per RTO, as under load.
  const Nanos step = cfg.propagation_delay_ns / 32;
  // Flows that never finish: nothing credits them.
  FlowTable flows;
  for (int f = 0; f < kFlows; ++f) {
    const TorId src = f % cfg.num_tors;
    flows.add(Flow{f, src, (src + 1 + f / cfg.num_tors) % cfg.num_tors,
                   Bytes{1} << 40, 0, 0});
  }
  EventQueue q;
  HostTransport t(cfg, &q, flows);
  TransportTimerSink sink(&t);
  q.set_sink(&sink);
  Nanos now = 0;
  std::int64_t i = 0;
  for (auto _ : state) {
    now += step;
    q.run_until(now);
    if (lossy) {
      t.for_each_retx_pair([&](TorId src, TorId dst) {
        while (t.has_retx(src, dst)) {
          const HostTransport::RetxChunk r = t.take_retx(src, dst, now);
          benchmark::DoNotOptimize(t.on_deliver(r.flow, r.seq, r.bytes, now));
        }
      });
    }
    const auto flow = static_cast<std::int32_t>(i % kFlows);
    const TorId src = flow % cfg.num_tors;
    const TorId dst = (src + 1 + flow / cfg.num_tors) % cfg.num_tors;
    const std::uint32_t seq = t.on_transmit(flow, src, dst, kUnit, now);
    benchmark::DoNotOptimize(seq);
    if (!lossy || i % 20 != 0) {
      benchmark::DoNotOptimize(t.on_deliver(flow, seq, kUnit, now));
    }
    t.flush_acks(now);
    ++i;
  }
  state.SetLabel(lossy ? "lossy 1/20" : "clean");
}
BENCHMARK(BM_TransportUnitCycle)->Arg(0)->Arg(1);

/// Counts flow arrivals; no other event kind is scheduled here.
class ArrivalCountSink final : public EventSink {
 public:
  void on_flow_arrival(const FlowArrivalEvent&, Nanos) override { ++count; }
  void on_link_toggle(const LinkToggleEvent&, Nanos) override {}
  void on_transport_timer(const TransportTimerEvent&, Nanos) override {}
  std::int64_t count{0};
};

void BM_ArrivalStreamAdmitDrain(benchmark::State& state) {
  // The incast admission shape: a background trace and an incast trace,
  // each sorted by time, admitted as one batch of 600 k arrivals (so the
  // commit merges two runs), then every arrival popped. This is the
  // arrival stream's share of setup plus its per-event cost, in isolation.
  constexpr std::size_t kPerRun = 300'000;
  constexpr Nanos kSpan = 2'000'000;  // 2 ms of arrivals per run
  std::vector<Nanos> when(2 * kPerRun);
  Rng rng(11);
  for (Nanos& w : when) w = static_cast<Nanos>(rng.next_below(kSpan));
  std::sort(when.begin(), when.begin() + kPerRun);
  std::sort(when.begin() + kPerRun, when.end());
  for (auto _ : state) {
    EventQueue q;
    ArrivalCountSink sink;
    q.set_sink(&sink);
    q.reserve_flow_arrivals(when.size());
    for (std::size_t i = 0; i < when.size(); ++i) {
      q.append_flow_arrival(when[i], static_cast<std::int32_t>(i));
    }
    q.commit_flow_arrivals();
    q.run_until(kSpan);
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(when.size()));
}
BENCHMARK(BM_ArrivalStreamAdmitDrain)->Unit(benchmark::kMillisecond);

void BM_FabricEpoch(benchmark::State& state) {
  // One full epoch of the paper-scale fabric under 100% Hadoop load.
  NetworkConfig cfg;
  cfg.topology = state.range(0) == 0 ? TopologyKind::kParallel
                                     : TopologyKind::kThinClos;
  NegotiatorFabric fabric(cfg);
  const auto sizes = SizeDistribution::hadoop();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 1.0, Rng(5));
  const Nanos horizon = 50 * kMilli;
  fabric.add_flows(gen.generate(0, horizon));
  Nanos t = 0;
  for (auto _ : state) {
    t += cfg.epoch_length_ns();
    if (t >= horizon) {
      state.SkipWithError("horizon exhausted; raise it");
      break;
    }
    fabric.run_until(t);
  }
  state.SetLabel(cfg.topology == TopologyKind::kParallel ? "parallel"
                                                         : "thin-clos");
}
BENCHMARK(BM_FabricEpoch)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
