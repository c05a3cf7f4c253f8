// Fig. 15 (Appendix A.2.1): iterative NegotiaToR Matching with 1/3/5
// rounds and no speedup, against the non-iterative algorithm with 2x
// speedup, on the parallel network.
//
// Expected shape: iteration hurts FCT at every load (longer scheduling
// delay) and never beats the 2x-speedup goodput (stale demand wastes
// links) — the paper's argument for "no iteration".
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header("Fig. 15: iterative matching vs 2x speedup");
  const Nanos duration = bench_duration(4.0);

  std::vector<SystemRow> systems = {
      {"speedup 2x",
       paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator)}};
  for (int iters : {1, 3, 5}) {
    NetworkConfig cfg = paper_config(TopologyKind::kParallel,
                                     SchedulerKind::kNegotiatorIterative);
    cfg.speedup = 1.0;
    cfg.variant.iterations = iters;
    static const char* names[] = {"", "ITER_I", "", "ITER_III", "", "ITER_V"};
    systems.push_back({names[iters], cfg});
  }

  std::vector<SweepPoint> points;
  add_grid(points, "fig15", systems, duration, 15);
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
      "\npaper: iterative FCT worse at all loads; goodput <= the "
      "non-iterative 2x-speedup version, degrading with more rounds.\n");
  return 0;
}
