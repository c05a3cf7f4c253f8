// Fig. 7b: average goodput under synchronized all-to-all workloads of
// varying flow size. Every ToR sends one equal-sized flow to every other
// ToR; goodput is total delivered bytes over the transmission window,
// per ToR, in Gbps.
//
// Expected shape: for large flows NegotiaToR exploits the 2x uplink
// speedup (goodput well above the 400 Gbps host aggregate, higher on the
// parallel network than on thin-clos); the oblivious scheme is capped by
// relayed traffic competing for bandwidth.
#include "bench_common.h"
#include "stats/table.h"
#include "workload/all_to_all.h"

using namespace negbench;

namespace {

struct A2aResult {
  double avg_gbps;        // average over the whole transmission
  double sustained_gbps;  // average over the first 0.5 ms (peak phase)
};

A2aResult alltoall_goodput(const NetworkConfig& cfg, Bytes flow_size) {
  const Nanos window = 50 * kMicro;
  Runner runner(cfg, window);
  const Nanos inject = 10 * kMicro;
  const auto flows = make_all_to_all(cfg.num_tors, flow_size, inject, 0, 2);
  runner.add_flows(flows);
  const Nanos deadline = inject + 100'000 * kMicro;
  const Nanos finish =
      runner.finish_time_of_group(2, flows.size(), deadline);
  if (finish == kNeverNs) return {-1.0, -1.0};
  const double total_bytes = static_cast<double>(flow_size) *
                             static_cast<double>(flows.size());
  const double avg = total_bytes * 8.0 /
                     static_cast<double>(finish - inject) / cfg.num_tors;
  // Sustained rate: delivered bytes over [inject, min(finish, inject+0.5ms)].
  const Nanos sustain_end = std::min<Nanos>(finish, inject + 500 * kMicro);
  double sustained_bytes = 0;
  for (TorId t = 0; t < cfg.num_tors; ++t) {
    const auto& series = runner.fabric().goodput().tor_window_series(t);
    for (std::size_t w = static_cast<std::size_t>(inject / window);
         w <= static_cast<std::size_t>(sustain_end / window) &&
         w < series.size();
         ++w) {
      sustained_bytes += static_cast<double>(series[w]);
    }
  }
  const double sustained = sustained_bytes * 8.0 /
                           static_cast<double>(sustain_end - inject) /
                           cfg.num_tors;
  return {avg, sustained};
}

}  // namespace

int main() {
  print_header(
      "Fig. 7b: all-to-all goodput vs flow size (Gbps per ToR; "
      "whole-transmission avg / sustained peak)");
  ConsoleTable table({"flow size", "negotiator/parallel",
                      "negotiator/thin-clos", "oblivious/thin-clos"});
  const NetworkConfig configs[] = {
      paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator),
      paper_config(TopologyKind::kThinClos, SchedulerKind::kNegotiator),
      paper_config(TopologyKind::kThinClos, SchedulerKind::kOblivious),
  };
  std::vector<SweepPoint> points;
  for (Bytes size : {1_KB, 5_KB, 30_KB, 100_KB, 500_KB}) {
    for (const NetworkConfig& cfg : configs) {
      points.push_back(custom_point(
          [cfg, size](const SweepPoint&) {
            const A2aResult r = alltoall_goodput(cfg, size);
            SweepOutcome out;
            out.metrics = {r.avg_gbps, r.sustained_gbps};
            return out;
          },
          std::string(to_string(cfg.topology)) + "/" +
              to_string(cfg.scheduler) + " " + std::to_string(size / 1000) +
              "KB"));
    }
  }
  const auto outcomes = run_sweep(points);

  std::size_t next = 0;
  for (Bytes size : {1_KB, 5_KB, 30_KB, 100_KB, 500_KB}) {
    std::vector<std::string> cells{std::to_string(size / 1000) + "KB"};
    for (const NetworkConfig& cfg : configs) {
      (void)cfg;
      const auto& m = outcomes[next++].metrics;
      cells.push_back(fmt(m[0], 0) + " / " + fmt(m[1], 0));
    }
    table.add_row(cells);
  }
  table.print();
  std::printf(
      "\npaper: NegotiaToR exploits the 2x speedup at heavy sizes (goodput "
      "well above the 400 Gbps host aggregate; ~600 Gbps on the parallel "
      "network), thin-clos lower (links idle as flows complete), the "
      "oblivious scheme capped far below by relayed traffic. Our sustained "
      "column shows the speedup effect; the full-transmission average "
      "includes the straggler tail. Note our baseline is work-conserving "
      "and so stronger than the paper's (see README.md, \"Deviations from "
      "the paper\").\n");
  return 0;
}
