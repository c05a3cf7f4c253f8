// Fig. 19 (A.4): bandwidth occupation at the receiver of one continuously
// transmitting pair while links fail, on the parallel network.
//
// Expected shape: on-off epochs before the failure; during it, occupancy
// drops to the level of the surviving links, with some zero-bandwidth
// epochs when the pair's scheduling messages happen to traverse a failed
// link, but never permanently zero, thanks to the rotating predefined
// rule; full bandwidth again after the repair.
#include "bench_common.h"
#include "stats/table.h"

using namespace negbench;

int main() {
  print_header("Fig. 19: receiver bandwidth across link failures");
  const NetworkConfig cfg =
      paper_config(TopologyKind::kParallel, SchedulerKind::kNegotiator);
  const Nanos window = 4 * kMicro;  // ~one epoch per window

  // A single point, still routed through the sweep engine so every bench
  // shares one execution path. Body: 175 per-window Gbps samples.
  const std::vector<SweepPoint> points = {custom_point(
      [cfg, window](const SweepPoint&) {
        Runner runner(cfg, window);
        Flow f;
        f.id = 1;
        f.src = 3;
        f.dst = 9;
        f.size = 1'000'000'000;  // continuously transmitting pair
        f.arrival = 0;
        runner.fabric().add_flow(f);
        // Fail half of the source's egress fibres at 200 us; repair at
        // 500 us.
        for (PortId p = 0; p < 4; ++p) {
          runner.fabric().schedule_link_event(200 * kMicro, 3, p,
                                              LinkDirection::kEgress, true);
          runner.fabric().schedule_link_event(500 * kMicro, 3, p,
                                              LinkDirection::kEgress, false);
        }
        runner.fabric().run_until(700 * kMicro);
        const auto& series = runner.fabric().goodput().tor_window_series(9);
        SweepOutcome out;
        for (std::size_t w = 0; w < 175; ++w) {
          const double bytes =
              w < series.size() ? static_cast<double>(series[w]) : 0.0;
          out.metrics.push_back(bytes * 8.0 / static_cast<double>(window));
        }
        return out;
      },
      "fig19")};
  const auto outcomes = run_sweep(points);

  std::printf("receiver Gbps per %lld-us window:\n",
              static_cast<long long>(window / kMicro));
  int zero_epochs = 0;
  for (std::size_t w = 0; w < 175; ++w) {
    const double gbps = outcomes[0].metrics[w];
    if (w >= 50 && w < 125 && gbps == 0.0) ++zero_epochs;
    std::printf("%.0f%s", gbps, (w + 1) % 25 == 0 ? "\n" : " ");
  }
  std::printf(
      "\nzero-bandwidth windows during the failure interval: %d "
      "(scheduling messages lost on failed links)\n",
      zero_epochs);
  std::printf(
      "paper: on-off epochs before failure; reduced but non-zero bandwidth "
      "during failures (rotation finds surviving links); full recovery "
      "after repair.\n");
  return 0;
}
