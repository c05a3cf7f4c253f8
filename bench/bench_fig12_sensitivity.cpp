// Fig. 12: parameter sensitivity on the parallel network.
//  (a) predefined-phase timeslot duration {20,30,60,90,120} ns (incl. the
//      10 ns guardband) — controls how much data one piggyback carries;
//  (b) scheduled-phase length {10,30,50,100,500} timeslots.
//
// Expected shape: performance is flat near the defaults (60 ns / 30
// slots); extreme settings hurt — too-short slots starve the bypass,
// too-long scheduled phases raise scheduling delay and staleness.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header("Fig. 12: parameter sensitivity (parallel network)");
  const Nanos duration = bench_duration(3.0);
  const double loads[] = {0.10, 0.50, 1.00};

  const NetworkConfig base =
      paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator);
  std::vector<SystemRow> slot_rows;
  for (Nanos slot : {20, 30, 60, 90, 120}) {
    NetworkConfig cfg = base;
    cfg.epoch.predefined_data_ns = slot - cfg.epoch.guardband_ns;
    slot_rows.push_back({std::to_string(slot) + (slot == 60 ? "*" : ""), cfg});
  }
  std::vector<SystemRow> len_rows;
  for (int slots : {10, 30, 50, 100, 500}) {
    NetworkConfig cfg = base;
    cfg.epoch.scheduled_slots = slots;
    len_rows.push_back({std::to_string(slots) + (slots == 30 ? "*" : ""), cfg});
  }
  // Declare both sub-figures as one grid so the sweep fills every core.
  std::vector<SweepPoint> points;
  add_grid(points, "slot ns", slot_rows, duration, 12, loads);
  add_grid(points, "phase slots", len_rows, duration, 13, loads);
  const auto outcomes = run_sweep(points);

  std::printf("\n(a) predefined timeslot duration: 99p mice FCT (us)\n");
  ConsoleTable slot_table({"slot (ns)", "10% load", "50% load", "100% load"});
  const auto slot_cell = [](const SweepOutcome& o) {
    return fmt(o.result.mice.p99_ns / 1e3, 1);
  };
  for (std::size_t r = 0; r < slot_rows.size(); ++r) {
    slot_table.add_row(
        row_cells({slot_rows[r].name}, outcomes, r, slot_cell, loads));
  }
  slot_table.print();

  std::printf("\n(b) scheduled phase length: 99p mice FCT (ms) / goodput\n");
  ConsoleTable len_table({"slots", "10% load", "50% load", "100% load"});
  const auto len_cell = [](const SweepOutcome& o) {
    return fct_ms(o.result.mice.p99_ns) + " / " + fmt(o.result.goodput, 2);
  };
  for (std::size_t r = 0; r < len_rows.size(); ++r) {
    len_table.add_row(row_cells({len_rows[r].name}, outcomes,
                                slot_rows.size() + r, len_cell, loads));
  }
  len_table.print();
  std::printf("\n(* = the default evaluation setting)\n");
  return 0;
}
