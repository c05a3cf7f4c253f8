// Table 4 (A.2.3): informative requests on the parallel network — the
// goodput-oriented data-size priority and the FCT-oriented weighted
// HoL-delay priority (alpha = 0.001) against binary requests.
//
// Expected shape: data-size buys a sliver of goodput but hurts tail FCT at
// high load (small pairs starve); HoL-delay trims the tail a little;
// neither justifies the added complexity.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header(
      "Table 4: informative requests (parallel), 99p mice FCT (us) / goodput");
  const Nanos duration = bench_duration(4.0);

  const std::vector<SystemRow> systems = {
      {"Base",
       paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator)},
      {"Data-Size", paper_config(TopologyKind::kParallel,
                                 SchedulerKind::kNegotiatorInformativeSize)},
      {"HoL-Delay", paper_config(TopologyKind::kParallel,
                                 SchedulerKind::kNegotiatorInformativeHol)},
  };
  std::vector<SweepPoint> points;
  add_grid(points, "table4", systems, duration, 17);
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"system", "10%", "25%", "50%", "75%", "100%"});
  for (std::size_t r = 0; r < systems.size(); ++r) {
    table.add_row(
        row_cells({systems[r].name}, outcomes, r, fct_us_goodput_cell));
  }
  table.print();
  std::printf(
      "\npaper: Data-Size 44.2 us at 100%% load vs Base 22.0 (worse tail, "
      "+0.8pp goodput); HoL-Delay 15.5 us (-30%%), goodput unchanged.\n");
  return 0;
}
