// Table 3 (A.2.2): traffic-aware selective relay on the thin-clos
// topology, against plain NegotiaToR, at five loads.
//
// Expected shape: FCT barely affected (only elephants relay), goodput
// barely improved — the paper's argument that relay isn't worth its
// complexity.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header("Table 3: selective relay (thin-clos), 99p mice FCT (us) / goodput");
  const Nanos duration = bench_duration(4.0);

  const std::vector<SystemRow> systems = {
      {"Base",
       paper_config(TopologyKind::kThinClos, SchedulerKind::kNegotiator)},
      {"Two-Hop", paper_config(TopologyKind::kThinClos,
                               SchedulerKind::kNegotiatorSelectiveRelay)},
  };
  std::vector<SweepPoint> points;
  add_grid(points, "table3", systems, duration, 16);
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"system", "10%", "25%", "50%", "75%", "100%"});
  for (std::size_t r = 0; r < systems.size(); ++r) {
    table.add_row(
        row_cells({systems[r].name}, outcomes, r, fct_us_goodput_cell));
  }
  table.print();
  std::printf(
      "\npaper: Base 13.2/9.1%% .. 23.8/85.6%%; Two-Hop within ~1 us and "
      "~1pp of goodput — minor or no gain.\n");
  return 0;
}
