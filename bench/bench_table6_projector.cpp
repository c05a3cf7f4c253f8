// Table 6 (A.2.5): ProjecToR's scheduling algorithm (per-port requests,
// bundle waiting-delay priority, one round) transplanted onto NegotiaToR's
// fabric, against NegotiaToR Matching, on the parallel network.
//
// Expected shape: worse FCT despite the extra delay-measurement
// complexity; goodput no better.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header(
      "Table 6: ProjecToR scheduling (parallel), 99p mice FCT (us) / goodput");
  const Nanos duration = bench_duration(4.0);

  const std::vector<SystemRow> systems = {
      {"Base",
       paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator)},
      {"ProjecToR",
       paper_config(TopologyKind::kParallel, SchedulerKind::kProjector)},
  };
  std::vector<SweepPoint> points;
  add_grid(points, "table6", systems, duration, 19);
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"system", "10%", "25%", "50%", "75%", "100%"});
  for (std::size_t r = 0; r < systems.size(); ++r) {
    table.add_row(
        row_cells({systems[r].name}, outcomes, r, fct_us_goodput_cell));
  }
  table.print();
  std::printf(
      "\npaper: ProjecToR 16.3..54.4 us vs Base 15.3..22.0 us; goodput "
      "equal or lower.\n");
  return 0;
}
