// Table 2: mice flow FCT (99p / average, in epochs) at 100% load with data
// piggybacking (PB) and priority queues (PQ) independently toggled, on both
// topologies.
//
// Expected shape: each mechanism cuts mice FCT, and PB+PQ lands near ~2
// epochs average (the paper's 30 ms runs: parallel 732.4/42.1 -> 6.0/1.6,
// thin-clos 1216.4/75.0 -> 6.5/1.6).
//
// When PB is disabled the paper shrinks the predefined timeslot to just the
// guardband plus the 30 B scheduling message and stretches the scheduled
// phase to keep the epoch length (and thus the reconfiguration overhead
// ratio) unchanged — reproduced below.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

namespace {

NetworkConfig ablation_config(TopologyKind topo, bool pb, bool pq) {
  NetworkConfig c = paper_config(topo, SchedulerKind::kNegotiator, pq);
  c.piggyback = pb;
  if (!pb) {
    const Nanos base_epoch = c.epoch_length_ns();
    // Slot carries only the 30 B scheduling message: ceil(30 B / rate)ns.
    c.epoch.predefined_data_ns = c.port_rate().time_for(30);
    const Nanos predefined = static_cast<Nanos>(c.predefined_slots()) *
                             c.epoch.predefined_slot_ns();
    c.epoch.scheduled_slots = static_cast<int>(
        (base_epoch - predefined) / c.epoch.scheduled_slot_ns);
  }
  return c;
}

}  // namespace

int main() {
  print_header("Table 2: mice FCT ablation of PB/PQ at 100% load (epochs)");
  const Nanos duration = bench_duration(4.0);
  const auto sizes = SizeDistribution::hadoop();

  const struct {
    const char* name;
    bool pb, pq;
  } rows[] = {
      {"-", false, false},
      {"PB", true, false},
      {"PQ", false, true},
      {"PB and PQ", true, true},
  };
  std::vector<SweepPoint> points;
  for (const auto& row : rows) {
    for (auto topo : {TopologyKind::kParallel, TopologyKind::kThinClos}) {
      const NetworkConfig cfg = ablation_config(topo, row.pb, row.pq);
      points.push_back(standard_point(cfg, sizes, 1.0, duration, 2024,
                                      std::string(row.name) + " " +
                                          to_string(topo)));
    }
  }
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"config", "parallel 99p/avg", "thin-clos 99p/avg"});
  std::size_t next = 0;
  for (const auto& row : rows) {
    std::vector<std::string> cells{row.name};
    for (auto topo : {TopologyKind::kParallel, TopologyKind::kThinClos}) {
      (void)topo;
      const SweepPoint& p = points[next];
      const RunResult& r = outcomes[next++].result;
      const double epoch = static_cast<double>(p.config.epoch_length_ns());
      cells.push_back(fmt(r.mice.p99_ns / epoch, 1) + "/" +
                      fmt(r.mice.mean_ns / epoch, 1));
    }
    table.add_row(cells);
  }
  table.print();
  std::printf(
      "\npaper (30 ms runs): parallel 732.4/42.1 -> 6.0/1.6, thin-clos "
      "1216.4/75.0 -> 6.5/1.6\nexpected shape: each mechanism cuts FCT; "
      "PB+PQ lands near ~2 epochs average.\n");
  return 0;
}
