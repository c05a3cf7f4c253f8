// Fig. 14 (Appendix A.1): NegotiaToR Matching's per-epoch match ratio
// (accepts/grants) at 100% load against the §3.2.2 theory
// E[Y] = 1 - (1 - 1/n)^n: 0.634 for the parallel network (n = 128), and a
// slightly higher value for thin-clos (n = 16 per ring, E[Y] = 0.644).
//
// Expected shape: both topologies' match ratios hover at ~0.63, near
// their E[Y], with thin-clos slightly higher than parallel.
#include <cmath>

#include "bench_common.h"
#include "stats/percentile.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header("Fig. 14: match ratio vs theory at 100% load");
  const Nanos duration = bench_duration(4.0);
  const auto sizes = SizeDistribution::hadoop();

  // Bodies return [mean, p5, p95] of the post-ramp match-ratio series.
  std::vector<SweepPoint> points;
  for (auto topo : {TopologyKind::kParallel, TopologyKind::kThinClos}) {
    const NetworkConfig cfg = paper_config(topo, SchedulerKind::kNegotiator);
    points.push_back(custom_point(
        [cfg, sizes, duration](const SweepPoint&) {
          Runner runner(cfg);
          runner.add_flows(load_workload(cfg, sizes, 1.0, duration, 14));
          runner.run(duration, duration / 2);
          auto series = runner.fabric().match_ratio_series();
          // Drop the ramp-up half.
          std::vector<double> tail(
              series.begin() + static_cast<long>(series.size() / 2),
              series.end());
          SweepOutcome out;
          out.metrics = {mean(tail), percentile(tail, 5),
                         percentile(tail, 95)};
          return out;
        },
        to_string(topo)));
    points.back().config = cfg;  // for the n/theory columns at merge time
  }
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"topology", "n", "theory E[Y]", "measured mean",
                      "measured p5", "measured p95"});
  std::size_t next = 0;
  for (auto topo : {TopologyKind::kParallel, TopologyKind::kThinClos}) {
    const NetworkConfig& cfg = points[next].config;
    const auto& m = outcomes[next++].metrics;
    const int n = topo == TopologyKind::kParallel ? cfg.num_tors
                                                  : cfg.num_tors /
                                                        cfg.ports_per_tor;
    const double theory = 1.0 - std::pow(1.0 - 1.0 / n, n);
    table.add_row({to_string(topo), std::to_string(n), fmt(theory, 3),
                   fmt(m[0], 3), fmt(m[1], 3), fmt(m[2], 3)});
  }
  table.print();
  std::printf(
      "\npaper: both topologies hover at ~0.63, thin-clos slightly "
      "higher.\n");
  return 0;
}
