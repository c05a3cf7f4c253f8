// Fig. 6: CDF of NegotiaToR's mice flow FCT at 100% load, both topologies,
// with PB and PQ enabled.
//
// Expected shape: the two topologies' curves overlap at small FCTs, and
// over 80% of mice flows bypass the scheduling delay, finishing within 2
// epochs (the CDF's second turning point).
#include "bench_common.h"
#include "stats/histogram.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header("Fig. 6: CDF of mice flow FCT at 100% load");
  const Nanos duration = bench_duration(4.0);
  const auto sizes = SizeDistribution::hadoop();

  // One point per topology; each body returns the CDF anchors as metrics:
  // [frac<=1ep, frac<=2ep, frac<=4ep, (value, cdf) x 20].
  std::vector<SweepPoint> points;
  for (auto topo : {TopologyKind::kParallel, TopologyKind::kThinClos}) {
    const NetworkConfig cfg = paper_config(topo, SchedulerKind::kNegotiator);
    points.push_back(custom_point(
        [cfg, sizes, duration](const SweepPoint&) {
          SweepOutcome out;
          Runner runner(cfg);
          runner.add_flows(load_workload(cfg, sizes, 1.0, duration, 6));
          out.result = runner.run(duration, duration / 2);
          EmpiricalCdf cdf;
          for (double v : runner.fabric().fct().mice_fcts()) cdf.add(v);
          const double epoch = static_cast<double>(cfg.epoch_length_ns());
          out.metrics = {cdf.fraction_below(epoch),
                         cdf.fraction_below(2 * epoch),
                         cdf.fraction_below(4 * epoch)};
          for (const auto& p : cdf.points(20)) {
            out.metrics.push_back(p.value);
            out.metrics.push_back(p.cdf);
          }
          return out;
        },
        to_string(topo)));
  }
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"topology", "<=1 epoch", "<=2 epochs", "<=4 epochs",
                      "p50 (us)", "p99 (us)"});
  std::size_t next = 0;
  for (auto topo : {TopologyKind::kParallel, TopologyKind::kThinClos}) {
    const SweepOutcome& o = outcomes[next++];
    const RunResult& r = o.result;
    table.add_row({to_string(topo), fmt(o.metrics[0], 3),
                   fmt(o.metrics[1], 3), fmt(o.metrics[2], 3),
                   fmt(r.mice.p50_ns / 1e3, 1),
                   fmt(r.mice.p99_ns / 1e3, 1)});
    // Print the CDF curve itself (20 points) for plotting.
    std::printf("%s CDF (fct_us, cdf):", to_string(topo));
    for (std::size_t i = 3; i + 1 < o.metrics.size(); i += 2) {
      std::printf(" (%.1f, %.2f)", o.metrics[i] / 1e3, o.metrics[i + 1]);
    }
    std::printf("\n");
  }
  table.print();
  std::printf(
      "\npaper: both curves overlap at small FCTs; >80%% of mice finish "
      "within 2 epochs (second turning point).\n");
  return 0;
}
