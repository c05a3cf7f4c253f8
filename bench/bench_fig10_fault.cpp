// Fig. 10: bandwidth usage under simultaneous link failures and after
// recovery, on the parallel network. Every pair is kept backlogged; a
// fraction of directed links fails mid-run and is repaired later.
//
// Expected shape: bandwidth degrades disproportionally with the failure
// ratio (a single fibre carries many pairs' traffic) and returns to the
// pre-failure level after repair — points near the y=x line of Fig. 10.
#include "bench_common.h"
#include "engine/fault_scenario.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header("Fig. 10: bandwidth usage across link failure and recovery");
  const Nanos phase = bench_duration(1.5);  // per phase
  const NetworkConfig base =
      paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator);

  std::vector<SweepPoint> points;
  for (double ratio : {0.01, 0.02, 0.04, 0.06, 0.08, 0.10}) {
    points.push_back(custom_point(
        [base, phase, ratio](const SweepPoint&) {
          Runner runner(base, /*stats_window=*/100 * kMicro);
          // Saturating all-pairs backlog so bandwidth usage is limited by
          // links, not demand.
          FlowId id = 0;
          for (TorId s = 0; s < base.num_tors; ++s) {
            for (TorId d = 0; d < base.num_tors; ++d) {
              if (s == d) continue;
              Flow f;
              f.id = id++;
              f.src = s;
              f.dst = d;
              f.size = 1'000'000'000;  // effectively infinite
              f.arrival = 0;
              runner.fabric().add_flow(f);
            }
          }
          Rng rng(static_cast<std::uint64_t>(ratio * 1000));
          const Nanos fail_at = phase;
          const Nanos repair_at = 2 * phase;
          const Nanos end = 3 * phase;
          FaultScenario()
              .uniform_burst({ratio, fail_at, repair_at})
              .install(runner.fabric(), rng);
          runner.fabric().goodput().set_measure_interval(0, end);
          runner.fabric().run_until(end);
          const auto& g = runner.fabric().goodput();
          // Skip the first third of each phase (ramp / detection
          // transients).
          const double pre = window_sum(g, base.num_tors, phase / 3, phase);
          const double during =
              window_sum(g, base.num_tors, fail_at + phase / 3, repair_at);
          const double post =
              window_sum(g, base.num_tors, repair_at + phase / 3, end);
          SweepOutcome out;
          out.metrics = {during / pre, post / pre};
          return out;
        },
        "ratio " + fmt(ratio, 2)));
  }
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"failure ratio", "BWpost_fail/BWpre_fail",
                      "BWpost_recov/BWpre_fail"});
  std::size_t next = 0;
  for (double ratio : {0.01, 0.02, 0.04, 0.06, 0.08, 0.10}) {
    const auto& m = outcomes[next++].metrics;
    table.add_row({fmt(ratio * 100, 0) + "%", fmt(m[0], 3), fmt(m[1], 3)});
  }
  table.print();
  std::printf(
      "\npaper: 1%% failures -> 98.9%% bandwidth, 10%% -> 75.3%%; recovery "
      "returns usage to the pre-failure level.\n");
  return 0;
}
