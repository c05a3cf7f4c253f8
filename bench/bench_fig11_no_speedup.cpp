// Fig. 11: the Fig. 9 comparison with the 2x uplink speedup removed
// (uplinks = downlinks). NegotiaToR must still exploit the constrained
// bandwidth better than the baseline.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header("Fig. 11: FCT and goodput vs load with no speedup (1x)");
  const Nanos duration = bench_duration(4.0);

  std::vector<SystemRow> systems = {
      {"negotiator/parallel",
       paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator)},
      {"negotiator/thin-clos",
       paper_config(TopologyKind::kThinClos, SchedulerKind::kNegotiator)},
      {"oblivious/thin-clos",
       paper_config(TopologyKind::kThinClos, SchedulerKind::kOblivious)},
  };
  for (SystemRow& sys : systems) sys.cfg.speedup = 1.0;

  std::vector<SweepPoint> points;
  add_grid(points, "fig11", systems, duration, 11);
  const auto outcomes = run_sweep(points);

  ConsoleTable fct({"system", "10%", "25%", "50%", "75%", "100%"});
  ConsoleTable goodput({"system", "10%", "25%", "50%", "75%", "100%"});
  for (std::size_t r = 0; r < systems.size(); ++r) {
    fct.add_row(row_cells({systems[r].name}, outcomes, r, fct_ms_cell));
    goodput.add_row(row_cells({systems[r].name}, outcomes, r, goodput_cell));
  }
  std::printf("\n(a) 99p mice FCT in ms\n");
  fct.print();
  std::printf("\n(b) normalized goodput\n");
  goodput.print();
  std::printf(
      "\npaper: same ordering as Fig. 9 — without speedup the baseline's "
      "relay halves its usable capacity, NegotiaToR degrades gracefully.\n");
  return 0;
}
