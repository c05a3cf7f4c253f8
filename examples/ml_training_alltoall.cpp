// Distributed-training collective scenario (§2: "large amounts of flows
// are synchronously released to the network"): every rack exchanges an
// equal-sized gradient shard with every other rack, repeatedly. The demo
// measures the completion time of each all-to-all round and the goodput
// the fabric sustains.
//
//   ./ml_training_alltoall [shard_kb] [rounds]
#include <cstdio>

#include "common/env.h"
#include "engine/runner.h"
#include "workload/all_to_all.h"

using namespace negotiator;

namespace {

void run_system(const char* name, const NetworkConfig& cfg, Bytes shard,
                int rounds) {
  Runner runner(cfg);
  std::printf("%s\n", name);
  Nanos t = 10 * kMicro;
  FlowId next_id = 0;
  double total_ms = 0;
  for (int round = 1; round <= rounds; ++round) {
    const auto flows =
        make_all_to_all(cfg.num_tors, shard, t, next_id, /*group=*/round);
    next_id += static_cast<FlowId>(flows.size());
    runner.add_flows(flows);
    const Nanos finish = runner.finish_time_of_group(
        round, flows.size(), t + 1'000'000 * kMicro);
    const double ms = static_cast<double>(finish - t) / 1e6;
    total_ms += ms;
    const double gbps = static_cast<double>(shard) * flows.size() * 8.0 /
                        static_cast<double>(finish - t) / cfg.num_tors;
    std::printf("  round %d: %7.3f ms (%5.0f Gbps/ToR average)\n", round, ms,
                gbps);
    t = finish + 10 * kMicro;  // next round starts after a short compute gap
  }
  std::printf("  total collective time: %.3f ms\n\n", total_ms);
}

}  // namespace

int main(int argc, char** argv) {
  const Bytes shard =
      Bytes{argc > 1 ? parse_env_int("ml_training_alltoall: shard_kb",
                                     argv[1], 1)
                     : 100} *
      1000;
  const int rounds =
      argc > 2 ? parse_env_int("ml_training_alltoall: rounds", argv[2], 1)
               : 3;
  std::printf("all-to-all collective: 128 racks x 127 peers x %lld B shards, "
              "%d rounds\n\n",
              static_cast<long long>(shard), rounds);

  NetworkConfig cfg;
  cfg.topology = TopologyKind::kParallel;
  run_system("NegotiaToR on the parallel network:", cfg, shard, rounds);

  cfg.topology = TopologyKind::kThinClos;
  run_system("NegotiaToR on thin-clos:", cfg, shard, rounds);

  cfg.scheduler = SchedulerKind::kOblivious;
  run_system("traffic-oblivious baseline:", cfg, shard, rounds);
  return 0;
}
