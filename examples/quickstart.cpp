// Quickstart: simulate NegotiaToR on the parallel network topology under a
// Hadoop-like workload and print the paper's headline metrics.
//
//   ./quickstart [load] [duration_ms]
#include <cstdio>

#include "common/env.h"
#include "engine/runner.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

using namespace negotiator;

int main(int argc, char** argv) {
  const double load =
      argc > 1 ? parse_env_positive("quickstart: load", argv[1], 1e3) : 0.5;
  const double duration_ms =
      argc > 2 ? parse_env_positive("quickstart: duration_ms", argv[2], 1e9)
               : 2.0;
  const auto duration = static_cast<Nanos>(duration_ms * kMilli);

  NetworkConfig config;  // defaults reproduce the paper's setup (§4.1)
  config.topology = TopologyKind::kParallel;
  config.scheduler = SchedulerKind::kNegotiator;
  std::printf("fabric: %s\n", config.summary().c_str());

  const SizeDistribution sizes = SizeDistribution::hadoop();
  WorkloadGenerator gen(sizes, config.num_tors, config.host_rate(), load,
                        Rng(42));
  std::printf("workload: %s, mean flow %.0f B, load %.0f%%, %.2f ms\n",
              sizes.name().c_str(), sizes.mean_bytes(), load * 100,
              duration_ms);

  Runner runner(config);
  runner.add_flows(gen.generate(0, duration));
  const RunResult r = runner.run(duration);

  std::printf("\ncompleted flows:      %zu\n", r.completed);
  std::printf("mice flows (<10KB):   %zu\n", r.mice.count);
  std::printf("mice FCT p99:         %.2f us (%.2f epochs)\n",
              r.mice.p99_ns / 1e3,
              r.mice.p99_ns / static_cast<double>(r.epoch_ns));
  std::printf("mice FCT mean:        %.2f us (%.2f epochs)\n",
              r.mice.mean_ns / 1e3,
              r.mice.mean_ns / static_cast<double>(r.epoch_ns));
  std::printf("normalized goodput:   %.3f\n", r.goodput);
  std::printf("match ratio (theory 1-1/e = 0.632): %.3f\n",
              r.mean_match_ratio);
  return 0;
}
