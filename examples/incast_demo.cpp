// Partition/aggregate incast scenario (§1, §3.4): a front-end ToR fans a
// query out to worker racks; every worker answers with a small response at
// the same instant. The demo compares NegotiaToR's scheduling-delay bypass
// against the traffic-oblivious baseline and prints when each response
// arrives.
//
//   ./incast_demo [degree] [response_bytes]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/env.h"
#include "engine/runner.h"
#include "workload/incast.h"

using namespace negotiator;

namespace {

void run_one(const char* name, const NetworkConfig& cfg, int degree,
             Bytes response) {
  Runner runner(cfg);
  Rng rng(7);
  const TorId aggregator = 0;
  const Nanos query_at = 10 * kMicro;  // the query fan-out completes here
  runner.add_flows(make_incast(cfg.num_tors, degree, response, aggregator,
                               query_at, rng, 0, /*group=*/1));
  const Nanos finish = runner.finish_time_of_group(
      1, static_cast<std::size_t>(degree), query_at + 10'000 * kMicro);
  std::vector<double> arrivals;
  for (const FctSample& s : runner.fabric().fct().samples()) {
    arrivals.push_back(static_cast<double>(s.arrival + s.fct - query_at) /
                       1e3);
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::printf("%-22s all %d responses in %8.2f us | first %6.2f us | "
              "median %6.2f us\n",
              name, degree,
              static_cast<double>(finish - query_at) / 1e3,
              arrivals.front(), arrivals[arrivals.size() / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  // Every worker is a distinct rack other than the aggregator's.
  const int max_degree = NetworkConfig{}.num_tors - 1;
  const int degree =
      argc > 1 ? parse_env_int("incast_demo: degree", argv[1], 1, max_degree)
               : 40;
  const Bytes response =
      argc > 2 ? parse_env_int("incast_demo: response_bytes", argv[2], 1)
               : 1_KB;
  std::printf("partition/aggregate: %d workers send %lld B responses to one "
              "aggregator ToR\n\n",
              degree, static_cast<long long>(response));

  NetworkConfig negotiator_cfg;
  negotiator_cfg.topology = TopologyKind::kParallel;
  run_one("NegotiaToR (parallel)", negotiator_cfg, degree, response);

  negotiator_cfg.topology = TopologyKind::kThinClos;
  run_one("NegotiaToR (thin-clos)", negotiator_cfg, degree, response);

  NetworkConfig no_bypass = negotiator_cfg;
  no_bypass.piggyback = false;
  run_one("  ... without bypass", no_bypass, degree, response);

  NetworkConfig oblivious_cfg;
  oblivious_cfg.topology = TopologyKind::kThinClos;
  oblivious_cfg.scheduler = SchedulerKind::kOblivious;
  run_one("traffic-oblivious", oblivious_cfg, degree, response);

  std::printf(
      "\nNegotiaToR's predefined phase guarantees every pair one packet per "
      "epoch, so responses bypass the ~2-epoch scheduling delay even when "
      "they all arrive at once.\n");
  return 0;
}
