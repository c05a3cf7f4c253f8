// Control-plane loss sweep: how the negotiator's matching and FCTs degrade
// as the REQUEST/GRANT/ACCEPT exchange gets lossy (core/control_channel.h),
// and how much of the damage the per-slot oblivious fallback claws back.
//
// Each row runs a Hadoop-style Poisson workload at fixed load with every
// control-message class dropped at the row's rate (plus a small fixed
// delay/duplication mix, the same one the lossy goldens pin), with the
// fallback off and on. The oblivious fabric rides along as the loss-free
// reference: it has no control plane to lose, so its row is flat.
//
// Reported per row:
//   - match ratio     accepts/grants under loss (Fig. 14 semantics);
//   - completed       flows finished within the horizon;
//   - mice p99 / all mean   FCT percentiles (ms);
//   - stranded MB     bytes still queued at the sources when the horizon
//     ends — pure control loss never blackholes into dark fibre, it
//     strands traffic behind a matching that never forms;
//   - fallback MB / degraded slots   how much the rotor-style fallback
//     carried, and in how many scheduled slots it had to step in.
//
// The second table is the acceptance bar: on a saturating all-pairs
// backlog (the Fig. 10 setup — queues never drain, so the fallback can
// never waste a grant by stealing the head-of-line bytes a next-epoch
// match was about to carry), enabling the fallback must strictly reduce
// the stranded backlog at every loss rate >= 10%. Under light Poisson
// traffic the fallback is a trade instead — it buys tail completions and
// mice p99 under heavy loss at the price of occasionally displacing
// matched traffic — which is why the bar is pinned on the saturated plane.
#include "bench_common.h"
#include "stats/resilience_recorder.h"
#include "stats/table.h"

using namespace negbench;

namespace {

struct LossRow {
  const char* system;
  double drop;
  bool fallback;
  bool lossless_reference;  // oblivious: no control plane at all
};

}  // namespace

int main() {
  print_header("Control-plane loss: matching, FCT, and the oblivious fallback");
  const Nanos duration = bench_duration(0.5);
  const double kLoad = 0.6;
  const struct {
    const char* name;
    TopologyKind topo;
    SchedulerKind sched;
  } systems[] = {
      {"negotiator/parallel", TopologyKind::kParallel,
       SchedulerKind::kNegotiator},
      {"negotiator/thin-clos", TopologyKind::kThinClos,
       SchedulerKind::kNegotiator},
  };
  const double drops[] = {0.0, 0.10, 0.25, 0.50};

  std::vector<SweepPoint> points;
  std::vector<LossRow> rows;
  auto add_point = [&](const char* name, TopologyKind topo,
                       SchedulerKind sched, double drop, bool fallback,
                       bool reference) {
    rows.push_back({name, drop, fallback, reference});
    NetworkConfig cfg = paper_config(topo, sched);
    if (!reference) {
      enable_control_loss(cfg, drop, fallback);
    }
    points.push_back(custom_point(
        [cfg, duration, kLoad](const SweepPoint&) {
          Runner runner(cfg);
          runner.add_flows(load_workload(cfg, SizeDistribution::hadoop(),
                                         kLoad, duration, cfg.seed));
          const RunResult r = runner.run(duration, duration / 2);
          // The oblivious reference has no control plane: its counters
          // read 0.
          const auto* neg =
              dynamic_cast<const NegotiatorFabric*>(&runner.fabric());
          const ResilienceRecorder& rec = runner.fabric().resilience();
          SweepOutcome out;
          out.metrics = {rec.control_grants() > 0 ? rec.control_match_ratio()
                                                  : r.mean_match_ratio,
                         static_cast<double>(r.completed),
                         r.mice.p99_ns,
                         r.all_flows.mean_ns,
                         static_cast<double>(r.backlog),
                         neg ? static_cast<double>(neg->fallback_bytes()) : 0,
                         neg ? static_cast<double>(neg->degraded_slots()) : 0};
          return out;
        },
        std::string(name) + " drop " + fmt(drop, 2) +
            (fallback ? " +fallback" : "")));
  };

  for (const auto& sys : systems) {
    for (const double drop : drops) {
      add_point(sys.name, sys.topo, sys.sched, drop, false, false);
      add_point(sys.name, sys.topo, sys.sched, drop, true, false);
    }
  }
  add_point("oblivious/thin-clos", TopologyKind::kThinClos,
            SchedulerKind::kOblivious, 0.0, false, true);
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"system", "drop", "fallback", "match ratio",
                      "completed", "mice p99 ms", "all mean ms",
                      "stranded MB", "fallback MB", "degr slots"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& m = outcomes[i].metrics;
    table.add_row({rows[i].system,
                   rows[i].lossless_reference ? "-" : fmt(rows[i].drop, 2),
                   rows[i].lossless_reference ? "-"
                                              : (rows[i].fallback ? "on"
                                                                  : "off"),
                   fmt(m[0], 3), fmt(m[1], 0), fct_ms(m[2]), fct_ms(m[3]),
                   fmt(m[4] / 1e6, 3),
                   rows[i].lossless_reference ? "-" : fmt(m[5] / 1e6, 3),
                   rows[i].lossless_reference ? "-" : fmt(m[6], 0)});
  }
  table.print();

  // --- Acceptance bar: saturating backlog, fallback off vs on ---
  std::vector<SweepPoint> sat_points;
  std::vector<LossRow> sat_rows;
  for (const auto& sys : systems) {
    for (const double drop : drops) {
      if (drop < 0.10) continue;
      for (const bool fallback : {false, true}) {
        sat_rows.push_back({sys.name, drop, fallback, false});
        NetworkConfig cfg = paper_config(sys.topo, sys.sched);
        enable_control_loss(cfg, drop, fallback);
        sat_points.push_back(custom_point(
            [cfg, duration](const SweepPoint&) {
              Runner runner(cfg);
              FlowId id = 0;
              for (TorId s = 0; s < cfg.num_tors; ++s) {
                for (TorId d = 0; d < cfg.num_tors; ++d) {
                  if (s == d) continue;
                  Flow f;
                  f.id = id++;
                  f.src = s;
                  f.dst = d;
                  f.size = 1'000'000'000;  // effectively infinite
                  f.arrival = 0;
                  runner.fabric().add_flow(f);
                }
              }
              const RunResult r = runner.run(duration, duration / 2);
              const auto& neg =
                  dynamic_cast<const NegotiatorFabric&>(runner.fabric());
              SweepOutcome out;
              out.metrics = {static_cast<double>(r.backlog),
                             static_cast<double>(neg.fallback_bytes()),
                             static_cast<double>(neg.degraded_slots()),
                             neg.resilience().control_match_ratio()};
              return out;
            },
            std::string(sys.name) + " saturated drop " + fmt(drop, 2) +
                (fallback ? " +fallback" : "")));
      }
    }
  }
  const auto sat = run_sweep(sat_points);

  std::printf("\nsaturating all-pairs backlog (acceptance bar):\n");
  ConsoleTable sat_table({"system", "drop", "fallback", "stranded GB",
                          "fallback MB", "degr slots", "match ratio"});
  for (std::size_t i = 0; i < sat_rows.size(); ++i) {
    const auto& m = sat[i].metrics;
    sat_table.add_row({sat_rows[i].system, fmt(sat_rows[i].drop, 2),
                       sat_rows[i].fallback ? "on" : "off", fmt(m[0] / 1e9, 4),
                       fmt(m[1] / 1e6, 3), fmt(m[2], 0), fmt(m[3], 3)});
  }
  sat_table.print();

  // Rows alternate off/on per (system, drop >= 0.10) pair.
  bool bar_holds = true;
  for (std::size_t i = 0; i + 1 < sat_rows.size(); i += 2) {
    if (sat[i + 1].metrics[0] >= sat[i].metrics[0]) {
      bar_holds = false;
      std::printf("FALLBACK REGRESSION: %s drop %.2f stranded %.0f -> %.0f\n",
                  sat_rows[i].system, sat_rows[i].drop, sat[i].metrics[0],
                  sat[i + 1].metrics[0]);
    }
  }
  std::printf(
      "\nmatch ratio and completions sink with loss; on the saturated plane "
      "the\nper-slot oblivious fallback %s stranded bytes at every loss "
      "rate >= 10%%.\n",
      bar_holds ? "strictly reduces" : "FAILED to strictly reduce");
  return bar_holds ? 0 : 1;
}
