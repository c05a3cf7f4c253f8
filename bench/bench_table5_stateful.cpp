// Table 5 (A.2.4): stateful scheduling (per-destination traffic matrices,
// grant-time decrements, accept reconciliation) against stateless
// NegotiaToR on the parallel network.
//
// Expected shape: a negligible difference — the paper's justification for
// staying stateless.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header(
      "Table 5: stateful scheduling (parallel), 99p mice FCT (us) / goodput");
  const Nanos duration = bench_duration(4.0);

  const std::vector<SystemRow> systems = {
      {"Base",
       paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator)},
      {"Stateful", paper_config(TopologyKind::kParallel,
                                SchedulerKind::kNegotiatorStateful)},
  };
  std::vector<SweepPoint> points;
  add_grid(points, "table5", systems, duration, 18);
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"system", "10%", "25%", "50%", "75%", "100%"});
  for (std::size_t r = 0; r < systems.size(); ++r) {
    table.add_row(
        row_cells({systems[r].name}, outcomes, r, fct_us_goodput_cell));
  }
  table.print();
  std::printf(
      "\npaper: within ~2 us FCT and ~0.2pp goodput of Base at every "
      "load.\n");
  return 0;
}
