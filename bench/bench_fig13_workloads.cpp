// Fig. 13: performance under more workloads, same epoch settings.
//  (a) Hadoop mixed with incasts (degree 20, 1 KB, 2% of bandwidth):
//      background mice FCT, average incast finish time, overall goodput;
//  (b) the heavier DCTCP web-search workload;
//  (c) the lighter Google workload.
#include "bench_common.h"
#include "stats/table.h"
#include "workload/incast.h"

using namespace negbench;

int main() {
  const Nanos duration = bench_duration(3.0);
  print_header("Fig. 13: more workloads");

  const std::vector<SystemRow> systems = {
      {"negotiator/parallel",
       paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator)},
      {"negotiator/thin-clos",
       paper_config(TopologyKind::kThinClos, SchedulerKind::kNegotiator)},
      {"oblivious/thin-clos",
       paper_config(TopologyKind::kThinClos, SchedulerKind::kOblivious)},
  };
  // Declare the whole figure — the incast mix of (a) plus the plain
  // sweeps of (b) and (c) — as one grid, then print from the merged
  // outcomes. Mix bodies return [bg 99p FCT ns, incast mean ns].
  const auto hadoop = SizeDistribution::hadoop();
  std::vector<SweepPoint> points;
  for (const SystemRow& sys : systems) {
    for (double load : kLoads) {
      points.push_back(custom_point(
          [cfg = sys.cfg, hadoop, load, duration](const SweepPoint&) {
            Runner runner(cfg);
            auto bg = load_workload(cfg, hadoop, load, duration, 14);
            Rng rng(15);
            auto incasts = make_incast_mix(
                cfg.num_tors, 20, 1_KB, 0.02, cfg.host_rate(), 0, duration,
                rng, static_cast<FlowId>(bg.size()), /*group=*/1);
            runner.add_flows(bg);
            runner.add_flows(incasts);
            SweepOutcome out;
            out.result = runner.run(duration, duration / 2);
            out.metrics = {
                runner.fabric().fct().mice_summary(0).p99_ns,
                runner.fabric().fct().all_summary(1).mean_ns,
            };
            return out;
          },
          "mix " + sys.name + " @" + fmt(load, 2)));
    }
  }
  const struct {
    const char* title;
    SizeDistribution sizes;
  } plain[] = {
      {"(b) web-search workload (DCTCP)", SizeDistribution::web_search()},
      {"(c) Google datacenter workload", SizeDistribution::google()},
  };
  for (const auto& w : plain) {
    add_grid(points, w.sizes.name(), systems, duration, 13, kLoads, w.sizes);
  }
  const auto outcomes = run_sweep(points);

  std::printf("\n(a) Hadoop + incast mix (degree 20, 1KB, 2%% of bw)\n");
  ConsoleTable mix({"system", "metric", "10%", "25%", "50%", "75%", "100%"});
  for (std::size_t r = 0; r < systems.size(); ++r) {
    const std::string& name = systems[r].name;
    mix.add_row(row_cells({name, "bg 99p FCT (ms)"}, outcomes, r,
                          [](const SweepOutcome& o) {
                            return fct_ms(o.metrics[0]);
                          }));
    mix.add_row(row_cells({name, "incast finish (us)"}, outcomes, r,
                          [](const SweepOutcome& o) {
                            return fmt(o.metrics[1] / 1e3, 1);
                          }));
    mix.add_row(row_cells({name, "goodput"}, outcomes, r, goodput_cell));
  }
  mix.print();

  for (std::size_t w = 0; w < std::size(plain); ++w) {
    std::printf("\n%s\n", plain[w].title);
    ConsoleTable table({"system", "metric", "10%", "25%", "50%", "75%",
                        "100%"});
    for (std::size_t r = 0; r < systems.size(); ++r) {
      const std::string& name = systems[r].name;
      const std::size_t row = (w + 1) * systems.size() + r;
      table.add_row(
          row_cells({name, "99p FCT (ms)"}, outcomes, row, fct_ms_cell));
      table.add_row(row_cells({name, "goodput"}, outcomes, row, goodput_cell));
    }
    table.print();
  }
  std::printf(
      "\npaper: consistent FCT and goodput advantages for NegotiaToR across "
      "all three workloads; incasts served with minor impact on background "
      "traffic.\n");
  return 0;
}
