// Fig. 9: the main result. 99p mice FCT and normalized goodput vs load for
// NegotiaToR on both topologies (with and without priority queues) against
// the traffic-oblivious baseline.
//
// Expected shape: NegotiaToR's mice FCT is one to two orders of magnitude
// below the baseline's at all loads (with PQ); its goodput tracks the load
// and beats the baseline at heavy loads. Note: our baseline spreads
// work-conservingly, which makes it somewhat stronger on goodput than the
// paper's — see README.md, "Deviations from the paper".
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header("Fig. 9: 99p mice FCT (ms) and goodput vs load");
  const Nanos duration = bench_duration(4.0);

  const std::vector<SystemRow> systems = {
      {"negotiator/parallel",
       paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator)},
      {"negotiator/parallel w/o PQ",
       paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator,
                    false)},
      {"negotiator/thin-clos",
       paper_config(TopologyKind::kThinClos, SchedulerKind::kNegotiator)},
      {"negotiator/thin-clos w/o PQ",
       paper_config(TopologyKind::kThinClos, SchedulerKind::kNegotiator,
                    false)},
      {"oblivious/thin-clos",
       paper_config(TopologyKind::kThinClos, SchedulerKind::kOblivious)},
      {"oblivious/thin-clos w/o PQ",
       paper_config(TopologyKind::kThinClos, SchedulerKind::kOblivious,
                    false)},
  };

  std::vector<SweepPoint> points;
  add_grid(points, "fig9", systems, duration, 9);
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
      "\npaper: NegotiaToR w/ PQ ~1e-2 ms at all loads; oblivious 1e-1..1e1 "
      "ms; goodput: NegotiaToR ~= load, oblivious saturates at heavy "
      "load.\n");
  return 0;
}
