// Extension ablation (§2): how much matching quality does NegotiaToR's
// distributed 63%-efficient algorithm leave on the table versus an ideal
// centralized controller with a global view — when both pay the same
// ~2-epoch information delay? The paper dismisses centralized scheduling
// on scalability grounds; this quantifies the forfeited performance.
//
// Expected shape: the controller's maximal matchings buy a few points of
// goodput at heavy load and a slightly tighter tail, the margin NegotiaToR
// trades away for a scalable control plane. The paper runs no such
// experiment, so this shape is the bench's own expectation, not a figure.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header(
      "Ablation: distributed NegotiaToR Matching vs centralized maximal "
      "matching (99p mice FCT us / goodput)");
  const Nanos duration = bench_duration(4.0);

  const auto systems = [](TopologyKind topo) {
    return std::vector<SystemRow>{
        {"negotiator (distributed)",
         paper_config(topo, SchedulerKind::kNegotiator)},
        {"centralized controller",
         paper_config(topo, SchedulerKind::kCentralized)},
    };
  };
  const TopologyKind topos[] = {TopologyKind::kParallel,
                                TopologyKind::kThinClos};
  std::vector<SweepPoint> points;
  for (TopologyKind topo : topos) {
    add_grid(points, to_string(topo), systems(topo), duration, 23);
  }
  const auto outcomes = run_sweep(points);

  for (std::size_t t = 0; t < std::size(topos); ++t) {
    std::printf("\n-- %s --\n", to_string(topos[t]));
    const std::vector<SystemRow> rows = systems(topos[t]);
    ConsoleTable table({"system", "10%", "25%", "50%", "75%", "100%"});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      table.add_row(row_cells({rows[r].name}, outcomes, t * rows.size() + r,
                              fct_us_goodput_cell));
    }
    table.print();
  }
  std::printf(
      "\nexpected: the controller's maximal matchings buy a few points of "
      "goodput at heavy load and a slightly tighter tail — the margin the "
      "paper trades away for a scalable control plane.\n");
  return 0;
}
