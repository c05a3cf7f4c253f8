// Google-benchmark microbenchmarks of the scheduler hot paths: ring
// arbitration, the GRANT and ACCEPT steps, queue operations, workload
// sampling, and a full fabric epoch. These back §3.6.2's practicality
// argument with concrete per-operation costs.
#include <benchmark/benchmark.h>

#include "core/matching.h"
#include "core/ring.h"
#include "engine/network.h"
#include "topo/parallel.h"
#include "topo/thin_clos.h"
#include "tor/dest_queue.h"
#include "workload/generator.h"
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

void BM_GrantStep(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  ParallelTopology topo(n, 8);
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
BENCHMARK(BM_GrantStep)->Arg(32)->Arg(128)->Arg(512);

void BM_AcceptStep(benchmark::State& state) {
  ParallelTopology topo(static_cast<int>(state.range(0)), 8);
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
BENCHMARK(BM_AcceptStep)->Arg(128)->Arg(512);

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
