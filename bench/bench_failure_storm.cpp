// Failure storm: goodput degradation and resilience metrics under a
// correlated failure burst, comparing the negotiator (with its FaultPlane
// detect/exclude/re-include loop) against the oblivious fabric (which has
// no detection plane and keeps spraying into dark links).
//
// Every system runs three equal phases on a saturating all-pairs backlog:
// pre-storm, storm (a zonal burst fails every directed link of a ToR group
// or a port plane, repaired with stagger before the phase ends), and
// post-repair. Reported per row:
//   - BWstorm/BWpre, BWpost/BWpre   goodput-degradation ratios (windowed
//     sums skipping the first third of each phase, as in Fig. 10);
//   - detect / recover              mean FaultPlane latency from injection
//     to exclusion and from repair to re-inclusion (negotiator only —
//     the oblivious fabric has no fault plane, shown as "-");
//   - excl churn                    exclusions + re-inclusions;
//   - blackholed                    bytes sent into dark, not-yet-excluded
//     links (wasted slots; 0 once the exclusion set converges).
//
// Expected shape: both fabrics lose goodput during the storm, but the
// negotiator stops blackholing after ~threshold epochs and recovers to the
// pre-storm level after repair; the oblivious fabric wastes every slot
// that lands on a dark link for the storm's whole duration.
#include "bench_common.h"
#include "engine/fault_scenario.h"
#include "stats/resilience_recorder.h"
#include "stats/table.h"

using namespace negbench;

namespace {

struct StormRow {
  const char* system;
  const char* zone;
};

}  // namespace

int main() {
  print_header("Failure storm: degradation and recovery, negotiator vs oblivious");
  const Nanos phase = bench_duration(1.0);  // per phase, 3 phases per run
  const struct {
    const char* name;
    TopologyKind topo;
    SchedulerKind sched;
  } systems[] = {
      {"negotiator/parallel", TopologyKind::kParallel,
       SchedulerKind::kNegotiator},
      {"negotiator/thin-clos", TopologyKind::kThinClos,
       SchedulerKind::kNegotiator},
      {"oblivious/thin-clos", TopologyKind::kThinClos,
       SchedulerKind::kOblivious},
  };
  const struct {
    const char* name;
    StormSpec::Zone zone;
  } zones[] = {
      {"tor-group", StormSpec::Zone::kTorGroup},
      {"port-plane", StormSpec::Zone::kPortPlane},
  };

  std::vector<SweepPoint> points;
  std::vector<StormRow> rows;
  for (const auto& sys : systems) {
    for (const auto& z : zones) {
      rows.push_back({sys.name, z.name});
      const NetworkConfig base = paper_config(sys.topo, sys.sched);
      const StormSpec::Zone zone = z.zone;
      points.push_back(custom_point(
          [base, phase, zone](const SweepPoint&) {
            Runner runner(base, /*stats_window=*/100 * kMicro);
            // Saturating all-pairs backlog so goodput is limited by links,
            // not demand (the Fig. 10 setup).
            FlowId id = 0;
            for (TorId s = 0; s < base.num_tors; ++s) {
              for (TorId d = 0; d < base.num_tors; ++d) {
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
            // One zonal burst at the phase boundary; every victim repairs
            // (with stagger) before the storm phase ends, so the third
            // phase measures pure recovery.
            StormSpec storm;
            storm.zone = zone;
            storm.group_size = 4;
            storm.bursts = 1;
            storm.first_burst_at = phase;
            storm.burst_window = 10 * kMicro;
            storm.outage_ns = phase - 40 * kMicro;
            storm.repair_stagger = 10 * kMicro;
            FaultScenario scenario;
            scenario.storm(storm);
            Rng rng(static_cast<std::uint64_t>(zone) * 131 + 17);
            scenario.install(runner.fabric(), rng);
            const Nanos end = 3 * phase;
            runner.fabric().goodput().set_measure_interval(0, end);
            runner.fabric().run_until(end);
            const auto& g = runner.fabric().goodput();
            // Skip the first third of each phase (ramp / detection
            // transients).
            const double pre = window_sum(g, base.num_tors, phase / 3, phase);
            const double during = window_sum(g, base.num_tors,
                                             phase + phase / 3, 2 * phase);
            const double post = window_sum(g, base.num_tors,
                                           2 * phase + phase / 3, end);
            const ResilienceRecorder& rec = runner.fabric().resilience();
            SweepOutcome out;
            out.metrics = {during / pre,
                           post / pre,
                           rec.detection().mean(),
                           rec.recovery().mean(),
                           static_cast<double>(rec.exclusion_churn()),
                           static_cast<double>(rec.blackholed_bytes())};
            return out;
          },
          std::string(sys.name) + " " + z.name));
    }
  }
  const auto outcomes = run_sweep(points);

  ConsoleTable table({"system", "storm zone", "BWstorm/BWpre",
                      "BWpost/BWpre", "detect us", "recover us", "excl churn",
                      "blackholed MB"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& m = outcomes[i].metrics;
    // The oblivious fabric has no fault plane: no exclusions, and its data
    // plane carries no blackhole accounting — render those cells as "-".
    const bool has_fault_plane = m[4] > 0;
    table.add_row({rows[i].system, rows[i].zone, fmt(m[0], 3), fmt(m[1], 3),
                   has_fault_plane ? fmt(m[2] / 1000.0, 1) : "-",
                   has_fault_plane ? fmt(m[3] / 1000.0, 1) : "-",
                   has_fault_plane ? fmt(m[4], 0) : "-",
                   has_fault_plane ? fmt(m[5] / 1e6, 3) : "-"});
  }
  table.print();
  std::printf(
      "\nboth fabrics degrade during the storm; the negotiator's fault "
      "plane stops\nblackholing after detection and restores pre-storm "
      "goodput post-repair.\n");
  return 0;
}
