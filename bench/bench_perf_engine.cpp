// Engine throughput harness: how fast does the simulator itself run?
//
// Runs the Fig. 9 evaluation workload (Hadoop size distribution, Poisson
// arrivals at 0.5 load) at N ∈ {16, 64, 128} ToRs for the three fig9
// systems and reports, per run:
//   - events/sec          discrete events executed per wall-clock second
//   - sim_ns_per_wall_s   simulated nanoseconds advanced per wall second
// plus an all-runs aggregate. This is the repo's perf trajectory: every PR
// can compare BENCH_perf.json against the previous one to catch hot-path
// regressions.
//
// A second section measures the *sweep* dimension: the fig9 grid (3
// systems x 5 loads) executed through the SweepEngine at 1, 2, and
// hardware-concurrency threads, reporting points/sec and the wall-clock
// speedup over the sequential run — the multi-core trajectory. The merged
// results are fingerprinted at every thread count to prove the
// determinism contract (identical output regardless of schedule).
//
// A storm section measures the fault path: each fig9 system runs the same
// workload with a ToR-group failure storm installed mid-run (one burst,
// staggered repairs) and reports events/sec under faults plus the
// goodput-degradation ratio (storm-phase vs pre-storm windowed goodput).
// Each row carries a result fingerprint so check_perf.py gates the fault
// path's bit-identity exactly like the scaling rows.
//
// A control_loss section runs the negotiator systems with the seeded lossy
// control plane installed (drop/delay/duplicate at a fixed mix, with and
// without the per-slot oblivious fallback) plus one loss-disabled reference
// row per system. Each row carries a result fingerprint so check_perf.py
// gates the control-fault path's bit-identity, and the reference row must
// fingerprint-identically to a run that never constructed the channel —
// the disabled-path witness at bench scale.
//
// A data_loss section runs the fig9 systems with the seeded lossy data
// plane installed (per-hop chunk drop + corruption at a fixed mix, without
// and with the end-host ARQ) plus one loss-disabled reference row and one
// zero-loss row (channel constructed, every probability 0, ARQ off) per
// system. Each row carries a result fingerprint so check_perf.py gates the
// data-fault path's bit-identity. The reference row must fingerprint-
// identically to the plain scaling row at the same N — the disabled-path
// witness at bench scale — and so must the zero-loss row, whose channel
// keeps the negotiator's scheduled phase on the per-slot walk while the
// scaling run drains it per queue segment. Both are asserted in-process
// and gated again by check_perf.py.
//
// A third section records the *scaling* dimension: events/sec for every
// fig9 system at N in {16, 64, 128, 256} — plus an oblivious-only tail at
// N = 512 (the all-to-all VLB data plane is the densest per-slot walk, so
// it gets the largest-N row) — so the per-event cost trend vs fabric size
// (the asymptotic claim of the sparse epoch pipeline) is a recorded
// artifact rather than a one-off measurement. Each row also reports the
// delivery-span batching factor deliveries/dispatch (how many final-hop
// deliveries the slot-close span flush coalesces per walk).
//
// Environment (a malformed or out-of-range number exits with status 2):
//   NEG_DURATION_MS    simulated milliseconds per run (default 2.0)
//   NEG_PERF_TORS      comma-separated N list (default "16,64,128")
//   NEG_PERF_SCALING_TORS  N list for the scaling section
//                      (default "16,64,128,256"; lists sharing N with
//                      NEG_PERF_TORS reuse those runs)
//   NEG_PERF_SCALING_OBLIVIOUS_TORS  extra N list run for the oblivious
//                      system only (default "512")
//   NEG_PERF_STORM_TORS  N list for the storm section (default "16,64")
//   NEG_PERF_CONTROL_TORS  N list for the control_loss section
//                      (default "16")
//   NEG_PERF_DATA_TORS  N list for the data_loss section (default "16,64":
//                      N = 64 is the lossy benchmark workload's scale)
//   NEG_PERF_SWEEP_TORS  N for the sweep grid (default 64)
//   NEG_PERF_THREADS   comma-separated thread counts for the sweep section
//                      (default "1,2,<hardware concurrency>"; on a 1-core
//                      host only "1" runs — a multi-thread timing row
//                      there would record a meaningless ~1x "speedup")
//   NEG_PERF_JSON      path to write the machine-readable results
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/fault_scenario.h"
#include "stats/resilience_recorder.h"
#include "stats/table.h"

using namespace negbench;

namespace {

struct PerfRun {
  std::string name;
  int num_tors;
  const char* topology;
  const char* scheduler;
  double load;
  Nanos sim_ns;
  double wall_seconds;
  std::uint64_t events;
  std::uint64_t dispatches;
  std::uint64_t deliveries;
  std::uint64_t delivery_dispatches;
  std::uint64_t predefined_visits;
  std::uint64_t result_fingerprint;
  std::size_t flows;
  std::size_t completed;

  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds
                            : 0.0;
  }
  double sim_ns_per_wall_sec() const {
    return wall_seconds > 0 ? static_cast<double>(sim_ns) / wall_seconds
                            : 0.0;
  }
  /// Logical (per-chunk) events per physical dispatch: the data plane's
  /// mean batching factor (1.0 means no relay spans landed).
  double events_per_dispatch() const {
    return dispatches > 0
               ? static_cast<double>(events) / static_cast<double>(dispatches)
               : 0.0;
  }
  /// Final-hop deliveries per span flush: the delivery-side batching
  /// factor (1.0 means every slot delivered at most one packet).
  double deliveries_per_dispatch() const {
    return delivery_dispatches > 0
               ? static_cast<double>(deliveries) /
                     static_cast<double>(delivery_dispatches)
               : 0.0;
  }
};

/// The comma-separated integers of environment variable `env_name`, or of
/// `fallback` when it is unset; a token below `min_value` or not an
/// integer exits with status 2, naming the variable.
std::vector<int> parse_int_list(const char* env_name,
                                const std::string& fallback, int min_value) {
  std::vector<int> out;
  const char* env = std::getenv(env_name);
  const std::string spec = env != nullptr ? env : fallback;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = spec.find(',', pos);
    out.push_back(parse_env_int(env_name, spec.substr(pos, comma - pos),
                                min_value));
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

/// Why the multi-thread sweep rows were skipped; empty when they ran.
std::string sweep_skipped_reason() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw == 1 && std::getenv("NEG_PERF_THREADS") == nullptr) {
    return "hardware_concurrency == 1: a 2-thread timing row on a 1-core "
           "host records a meaningless ~1x speedup";
  }
  return "";
}

std::vector<int> sweep_thread_counts() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (!sweep_skipped_reason().empty()) {
    return {1};  // the determinism fingerprint still gets one row
  }
  std::vector<int> counts = parse_int_list(
      "NEG_PERF_THREADS", "1,2," + std::to_string(hw), 1);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  if (counts.empty() || counts.front() != 1) {
    counts.insert(counts.begin(), 1);  // the speedup baseline
  }
  return counts;
}

/// The fig9-style grid the sweep section executes: 3 systems x 5 loads.
std::vector<SweepPoint> sweep_grid(int num_tors, Nanos duration) {
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
  const auto sizes = SizeDistribution::hadoop();
  std::vector<SweepPoint> points;
  for (const auto& sys : systems) {
    NetworkConfig cfg = paper_config(sys.topo, sys.sched);
    cfg.num_tors = num_tors;
    for (double load : kLoads) {
      points.push_back(standard_point(cfg, sizes, load, duration, 9,
                                      std::string(sys.name) + " @" +
                                          fmt(load, 2)));
    }
  }
  return points;
}

/// Order-sensitive fingerprint of a sweep's merged results, for the
/// determinism check across thread counts.
std::uint64_t fingerprint(const std::vector<SweepOutcome>& outcomes) {
  std::uint64_t h = kFnv1aBasis;  // FNV-1a over the raw doubles
  auto mix = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = fnv1a_mix(h, bits);
  };
  for (const SweepOutcome& o : outcomes) {
    mix(o.result.mice.p99_ns);
    mix(o.result.mice.mean_ns);
    mix(o.result.all_flows.p99_ns);
    mix(o.result.goodput);
    mix(static_cast<double>(o.result.completed));
    mix(static_cast<double>(o.result.backlog));
  }
  return h;
}

struct SweepPerf {
  int threads;
  std::size_t points;
  double wall_seconds;
  std::uint64_t digest;

  double points_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(points) / wall_seconds
                            : 0.0;
  }
};

/// The step every section shares: admits the Fig. 9 workload (Hadoop
/// sizes at `load`, seed 9), calls `prepare` (the storm installs its
/// scenario there), times runner.run() over `duration` (metrics over its
/// second half) and fills the row's PerfRun. Its fingerprint is
/// result_fingerprint (engine/runner.h), the recipe the seed-equivalence
/// goldens pin, so a row doubles as a bit-identity witness at the Ns the
/// goldens don't cover. The run's result goes to `*result` when set.
PerfRun timed_run(Runner& runner, const char* name, double load,
                  Nanos duration, const std::function<void()>& prepare = {},
                  RunResult* result = nullptr) {
  const NetworkConfig& cfg = runner.config();
  WorkloadGenerator gen(SizeDistribution::hadoop(), cfg.num_tors,
                        cfg.host_rate(), load, Rng(9));
  const auto flows = gen.generate(0, duration);
  runner.add_flows(flows);
  if (prepare) prepare();
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = runner.run(duration, duration / 2);
  const auto t1 = std::chrono::steady_clock::now();
  const FabricSim& fab = runner.fabric();
  PerfRun out;
  out.name = name;
  out.num_tors = cfg.num_tors;
  out.topology = to_string(cfg.topology);
  out.scheduler = to_string(cfg.scheduler);
  out.load = load;
  out.sim_ns = duration;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.events = fab.events_executed();
  out.dispatches = fab.events_dispatched();
  out.deliveries = fab.deliveries();
  out.delivery_dispatches = fab.delivery_dispatches();
  out.predefined_visits = fab.predefined_visits();
  out.result_fingerprint = result_fingerprint(fab, r);
  out.flows = flows.size();
  out.completed = r.completed;
  if (result != nullptr) *result = r;
  return out;
}

PerfRun measure_engine(const char* name, TopologyKind topo,
                       SchedulerKind sched, int n, double load,
                       Nanos duration) {
  NetworkConfig cfg = paper_config(topo, sched);
  cfg.num_tors = n;
  Runner runner(cfg);
  return timed_run(runner, name, load, duration);
}

/// One fig9 system under a mid-run ToR-group storm: events/sec on the
/// fault path, goodput-degradation ratio, and a result fingerprint pinning
/// the fault path's bit-identity.
struct StormRun {
  PerfRun run;
  double degradation_ratio;  // storm-phase goodput / pre-storm goodput
  std::int64_t exclusion_churn;
  std::uint64_t blackholed_bytes;
};

double goodput_window_sum(const GoodputMeter& g, int num_tors, Nanos from,
                          Nanos to) {
  const Nanos w = g.window_ns();
  double bytes = 0;
  for (TorId t = 0; t < num_tors; ++t) {
    const auto& series = g.tor_window_series(t);
    for (std::size_t i = static_cast<std::size_t>(from / w);
         i < static_cast<std::size_t>(to / w) && i < series.size(); ++i) {
      bytes += static_cast<double>(series[i]);
    }
  }
  return bytes;
}

StormRun measure_storm(const char* name, TopologyKind topo,
                       SchedulerKind sched, int n, double load,
                       Nanos duration) {
  NetworkConfig cfg = paper_config(topo, sched);
  cfg.num_tors = n;
  Runner runner(cfg, /*stats_window=*/100 * kMicro);
  ResilienceRecorder rec(cfg.num_tors, cfg.ports_per_tor);
  runner.fabric().set_resilience(&rec);
  const Nanos phase = duration / 3;
  StormRun out;
  out.run = timed_run(runner, name, load, duration, [&] {
    // One ToR-group burst in the middle third; every victim repairs (with
    // stagger) before the final third, so the run ends converged.
    StormSpec storm;
    storm.zone = StormSpec::Zone::kTorGroup;
    storm.group_size = 4;
    storm.bursts = 1;
    storm.first_burst_at = phase;
    storm.burst_window = 10 * kMicro;
    storm.outage_ns = std::max<Nanos>(phase - 40 * kMicro, 50 * kMicro);
    storm.repair_stagger = 10 * kMicro;
    FaultScenario scenario;
    scenario.storm(storm);
    Rng storm_rng(static_cast<std::uint64_t>(n) * 1017 + 5);
    scenario.install(runner.fabric(), storm_rng);
    runner.fabric().goodput().set_measure_interval(0, duration);
  });
  const auto& g = runner.fabric().goodput();
  const double pre =
      goodput_window_sum(g, cfg.num_tors, phase / 3, phase);
  const double during =
      goodput_window_sum(g, cfg.num_tors, phase + phase / 3, 2 * phase);
  out.degradation_ratio = pre > 0 ? during / pre : 0.0;
  out.exclusion_churn = rec.exclusion_churn();
  out.blackholed_bytes = static_cast<std::uint64_t>(rec.blackholed_bytes());
  return out;
}

/// One negotiator system under seeded control-plane loss: events/sec on
/// the control-fault path, the damage (match ratio, stranded backlog) and
/// the fallback's contribution, plus a result fingerprint pinning the
/// lossy path's bit-identity. `label` distinguishes the sub-configuration
/// (check_perf.py matches baseline rows by (name, num_tors, label)).
struct ControlLossRun {
  PerfRun run;
  std::string label;
  double match_ratio;
  std::uint64_t stranded_bytes;
  std::uint64_t fallback_bytes;
  std::int64_t degraded_slots;
  std::uint64_t control_dropped{0};
};

ControlLossRun measure_control_loss(const char* name, TopologyKind topo,
                                    SchedulerKind sched, int n, double load,
                                    Nanos duration, double drop,
                                    bool fallback, bool lossless,
                                    const char* label) {
  NetworkConfig cfg = paper_config(topo, sched);
  cfg.num_tors = n;
  if (!lossless) {
    // The same drop/delay/duplicate mix the lossy goldens pin, so a bench
    // fingerprint change and a golden change always move together.
    cfg.control_fault.enabled = true;
    cfg.control_fault.request_drop = drop;
    cfg.control_fault.grant_drop = drop;
    cfg.control_fault.accept_drop = drop;
    cfg.control_fault.delay_prob = 0.1;
    cfg.control_fault.max_delay_epochs = 2;
    cfg.control_fault.duplicate_prob = 0.05;
    cfg.control_fault.fallback = fallback;
  }
  Runner runner(cfg);
  ResilienceRecorder rec(cfg.num_tors, cfg.ports_per_tor);
  runner.fabric().set_resilience(&rec);
  RunResult r;
  ControlLossRun out;
  out.run = timed_run(runner, name, load, duration, {}, &r);
  const auto& fab = dynamic_cast<const NegotiatorFabric&>(runner.fabric());
  out.label = label;
  out.match_ratio = rec.control_grants() > 0 ? rec.control_match_ratio()
                                             : r.mean_match_ratio;
  out.stranded_bytes = static_cast<std::uint64_t>(r.backlog);
  out.fallback_bytes = static_cast<std::uint64_t>(fab.fallback_bytes());
  out.degraded_slots = fab.degraded_slots();
  if (const ControlChannel* c = fab.control_channel()) {
    out.control_dropped = static_cast<std::uint64_t>(c->dropped());
  }
  return out;
}

/// One system under seeded data-plane loss (core/data_channel.h), with or
/// without the end-host ARQ (tor/host_transport.h): events/sec on the
/// data-fault path, the damage and recovery counters, plus a result
/// fingerprint. The lossless reference row never constructs the channel,
/// so its fingerprint must match the plain scaling row bit-for-bit — the
/// disabled-path witness at bench scale (asserted in main). The zero-loss
/// row constructs the channel with every probability 0 and ARQ off: it
/// drops nothing but keeps the negotiator's scheduled phase on the
/// per-slot walk, so its match with the scaling row (which drains per
/// queue segment) witnesses that the two paths agree.
struct DataLossRun {
  PerfRun run;
  std::string label;
  // 0 where the run has no channel (lossless) or no transport (ARQ off).
  std::uint64_t data_dropped_bytes{0};
  std::uint64_t data_corrupted_bytes{0};
  std::uint64_t retransmitted_bytes{0};
  std::int64_t spurious_retx{0};
  std::int64_t rto_fires{0};
  std::int64_t max_backoff_reached{0};
};

DataLossRun measure_data_loss(const char* name, TopologyKind topo,
                              SchedulerKind sched, int n, double load,
                              Nanos duration, double drop, double corrupt,
                              bool arq, bool lossless, const char* label) {
  NetworkConfig cfg = paper_config(topo, sched);
  cfg.num_tors = n;
  if (!lossless) {
    // The same per-hop drop + corruption mix the data-loss goldens pin, so
    // a bench fingerprint change and a golden change always move together.
    cfg.data_fault.enabled = true;
    cfg.data_fault.first_hop_drop = drop;
    cfg.data_fault.relay_drop = drop;
    cfg.data_fault.second_hop_drop = drop;
    cfg.data_fault.corrupt_prob = corrupt;
    cfg.data_fault.arq = arq;
  }
  Runner runner(cfg);
  DataLossRun out;
  out.run = timed_run(runner, name, load, duration);
  out.label = label;
  if (const DataChannel* d = runner.fabric().data_channel()) {
    out.data_dropped_bytes = static_cast<std::uint64_t>(d->dropped_bytes());
    out.data_corrupted_bytes =
        static_cast<std::uint64_t>(d->corrupted_bytes());
  }
  if (const HostTransport* t = runner.fabric().host_transport()) {
    out.retransmitted_bytes =
        static_cast<std::uint64_t>(t->retransmitted_bytes());
    out.spurious_retx = t->spurious_retx();
    out.rto_fires = t->rto_fires();
    out.max_backoff_reached = t->max_backoff_reached();
  }
  return out;
}

void write_json(const char* path, const std::vector<PerfRun>& runs,
                const std::vector<PerfRun>& scaling,
                const std::vector<StormRun>& storms,
                const std::vector<ControlLossRun>& control,
                const std::vector<DataLossRun>& data_loss,
                const std::vector<SweepPerf>& sweeps, int sweep_tors,
                bool deterministic, const std::string& skipped_reason) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_perf_engine: cannot write %s\n", path);
    return;
  }
  std::uint64_t total_events = 0;
  double total_wall = 0.0;
  for (const PerfRun& r : runs) {
    total_events += r.events;
    total_wall += r.wall_seconds;
  }
  std::fprintf(f, "{\n  \"bench\": \"perf_engine\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(f, "  \"bench_threads\": %u,\n", SweepEngine::default_threads());
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const PerfRun& r = runs[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"num_tors\": %d, \"topology\": \"%s\", "
        "\"scheduler\": \"%s\", \"load\": %.2f, \"sim_ns\": %lld, "
        "\"wall_seconds\": %.6f, \"events\": %llu, "
        "\"events_per_sec\": %.1f, \"sim_ns_per_wall_sec\": %.1f, "
        "\"flows\": %zu, \"completed\": %zu}%s\n",
        r.name.c_str(), r.num_tors, r.topology, r.scheduler, r.load,
        static_cast<long long>(r.sim_ns), r.wall_seconds,
        static_cast<unsigned long long>(r.events), r.events_per_sec(),
        r.sim_ns_per_wall_sec(), r.flows, r.completed,
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"aggregate\": {\"events\": %llu, "
               "\"wall_seconds\": %.6f, \"events_per_sec\": %.1f},\n",
               static_cast<unsigned long long>(total_events), total_wall,
               total_wall > 0
                   ? static_cast<double>(total_events) / total_wall
                   : 0.0);
  // Scaling: events/sec vs N per system (the asymptotic record). Each row
  // carries its result fingerprint (bit-identity witness at this N for
  // this sim_ns), the physical dispatch count (events/dispatches = the
  // relay-span batching factor) and the predefined-phase connections the
  // run visited (a deterministic work count).
  std::fprintf(f, "  \"scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const PerfRun& r = scaling[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"num_tors\": %d, "
                 "\"sim_ns\": %lld, \"events\": %llu, "
                 "\"dispatches\": %llu, \"events_per_dispatch\": %.2f, "
                 "\"deliveries\": %llu, \"delivery_dispatches\": %llu, "
                 "\"deliveries_per_dispatch\": %.2f, "
                 "\"predefined_visits\": %llu, "
                 "\"wall_seconds\": %.6f, \"events_per_sec\": %.1f, "
                 "\"fingerprint\": \"%016llx\"}%s\n",
                 r.name.c_str(), r.num_tors,
                 static_cast<long long>(r.sim_ns),
                 static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.dispatches),
                 r.events_per_dispatch(),
                 static_cast<unsigned long long>(r.deliveries),
                 static_cast<unsigned long long>(r.delivery_dispatches),
                 r.deliveries_per_dispatch(),
                 static_cast<unsigned long long>(r.predefined_visits),
                 r.wall_seconds,
                 r.events_per_sec(),
                 static_cast<unsigned long long>(r.result_fingerprint),
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Storm: events/sec and goodput degradation on the fault path, with the
  // same per-row fingerprint gating as the scaling section.
  std::fprintf(f, "  \"storm\": [\n");
  for (std::size_t i = 0; i < storms.size(); ++i) {
    const StormRun& s = storms[i];
    const PerfRun& r = s.run;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"num_tors\": %d, "
                 "\"sim_ns\": %lld, \"events\": %llu, "
                 "\"wall_seconds\": %.6f, \"events_per_sec\": %.1f, "
                 "\"degradation_ratio\": %.4f, \"exclusion_churn\": %lld, "
                 "\"blackholed_bytes\": %llu, "
                 "\"fingerprint\": \"%016llx\"}%s\n",
                 r.name.c_str(), r.num_tors,
                 static_cast<long long>(r.sim_ns),
                 static_cast<unsigned long long>(r.events), r.wall_seconds,
                 r.events_per_sec(), s.degradation_ratio,
                 static_cast<long long>(s.exclusion_churn),
                 static_cast<unsigned long long>(s.blackholed_bytes),
                 static_cast<unsigned long long>(r.result_fingerprint),
                 i + 1 < storms.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Control loss: the lossy control plane with and without the per-slot
  // oblivious fallback, fingerprint-gated per row like scaling/storm. The
  // label names the sub-configuration; check_perf.py keys baseline rows on
  // (name, num_tors, label).
  std::fprintf(f, "  \"control_loss\": [\n");
  for (std::size_t i = 0; i < control.size(); ++i) {
    const ControlLossRun& c = control[i];
    const PerfRun& r = c.run;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"num_tors\": %d, "
                 "\"label\": \"%s\", \"sim_ns\": %lld, "
                 "\"events\": %llu, \"wall_seconds\": %.6f, "
                 "\"events_per_sec\": %.1f, \"match_ratio\": %.4f, "
                 "\"stranded_bytes\": %llu, \"fallback_bytes\": %llu, "
                 "\"degraded_slots\": %lld, \"control_dropped\": %llu, "
                 "\"fingerprint\": \"%016llx\"}%s\n",
                 r.name.c_str(), r.num_tors, c.label.c_str(),
                 static_cast<long long>(r.sim_ns),
                 static_cast<unsigned long long>(r.events), r.wall_seconds,
                 r.events_per_sec(), c.match_ratio,
                 static_cast<unsigned long long>(c.stranded_bytes),
                 static_cast<unsigned long long>(c.fallback_bytes),
                 static_cast<long long>(c.degraded_slots),
                 static_cast<unsigned long long>(c.control_dropped),
                 static_cast<unsigned long long>(r.result_fingerprint),
                 i + 1 < control.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Data loss: the lossy data plane with and without the end-host ARQ,
  // fingerprint-gated per row like scaling/storm/control_loss. The
  // lossless and zero-loss rows' fingerprints equal the plain scaling
  // row's (checked in main before this writes).
  std::fprintf(f, "  \"data_loss\": [\n");
  for (std::size_t i = 0; i < data_loss.size(); ++i) {
    const DataLossRun& d = data_loss[i];
    const PerfRun& r = d.run;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"num_tors\": %d, "
                 "\"label\": \"%s\", \"sim_ns\": %lld, "
                 "\"events\": %llu, \"wall_seconds\": %.6f, "
                 "\"events_per_sec\": %.1f, \"completed\": %zu, "
                 "\"data_dropped_bytes\": %llu, "
                 "\"data_corrupted_bytes\": %llu, "
                 "\"retransmitted_bytes\": %llu, \"spurious_retx\": %lld, "
                 "\"rto_fires\": %lld, \"max_backoff_reached\": %lld, "
                 "\"fingerprint\": \"%016llx\"}%s\n",
                 r.name.c_str(), r.num_tors, d.label.c_str(),
                 static_cast<long long>(r.sim_ns),
                 static_cast<unsigned long long>(r.events), r.wall_seconds,
                 r.events_per_sec(), r.completed,
                 static_cast<unsigned long long>(d.data_dropped_bytes),
                 static_cast<unsigned long long>(d.data_corrupted_bytes),
                 static_cast<unsigned long long>(d.retransmitted_bytes),
                 static_cast<long long>(d.spurious_retx),
                 static_cast<long long>(d.rto_fires),
                 static_cast<long long>(d.max_backoff_reached),
                 static_cast<unsigned long long>(r.result_fingerprint),
                 i + 1 < data_loss.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const double base_wall = sweeps.empty() ? 0.0 : sweeps.front().wall_seconds;
  std::fprintf(f, "  \"sweep\": {\"grid\": \"fig9\", \"num_tors\": %d, "
               "\"deterministic\": %s, ",
               sweep_tors, deterministic ? "true" : "false");
  if (!skipped_reason.empty()) {
    std::fprintf(f, "\"skipped_reason\": \"%s\", ",
                 skipped_reason.c_str());
  }
  std::fprintf(f, "\"runs\": [\n");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepPerf& s = sweeps[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"points\": %zu, "
                 "\"wall_seconds\": %.6f, \"points_per_sec\": %.3f, "
                 "\"speedup_vs_1t\": %.3f}%s\n",
                 s.threads, s.points, s.wall_seconds, s.points_per_sec(),
                 s.wall_seconds > 0 ? base_wall / s.wall_seconds : 0.0,
                 i + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ]}\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  // Every setting is parsed before the first run, so a malformed value
  // fails at once instead of after minutes of measurement.
  const Nanos duration = bench_duration(2.0);
  const std::vector<int> tor_counts =
      parse_int_list("NEG_PERF_TORS", "16,64,128", 2);
  const std::vector<int> scaling_tor_counts =
      parse_int_list("NEG_PERF_SCALING_TORS", "16,64,128,256", 2);
  const std::vector<int> scaling_oblivious_tor_counts =
      parse_int_list("NEG_PERF_SCALING_OBLIVIOUS_TORS", "512", 2);
  const std::vector<int> storm_tor_counts =
      parse_int_list("NEG_PERF_STORM_TORS", "16,64", 2);
  const std::vector<int> control_tor_counts =
      parse_int_list("NEG_PERF_CONTROL_TORS", "16", 2);
  const std::vector<int> data_tor_counts =
      parse_int_list("NEG_PERF_DATA_TORS", "16,64", 2);
  const char* sweep_env = std::getenv("NEG_PERF_SWEEP_TORS");
  const int sweep_tors =
      sweep_env != nullptr ? parse_env_int("NEG_PERF_SWEEP_TORS", sweep_env, 2)
                           : 64;
  const std::vector<int> sweep_threads = sweep_thread_counts();

  print_header("Engine perf: events/sec and simulated-ns per wall-second");
  const double load = 0.5;

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

  std::vector<PerfRun> runs;
  ConsoleTable table({"system", "N", "events", "wall s", "events/s",
                      "sim-ns/wall-s"});
  for (const int n : tor_counts) {
    for (const auto& sys : systems) {
      const PerfRun r =
          measure_engine(sys.name, sys.topo, sys.sched, n, load, duration);
      table.add_row({r.name, std::to_string(r.num_tors),
                     std::to_string(r.events), fmt(r.wall_seconds, 3),
                     fmt(r.events_per_sec(), 0),
                     fmt(r.sim_ns_per_wall_sec(), 0)});
      runs.push_back(r);
    }
  }
  table.print();

  std::uint64_t total_events = 0;
  double total_wall = 0.0;
  for (const PerfRun& r : runs) {
    total_events += r.events;
    total_wall += r.wall_seconds;
  }
  std::printf("\naggregate: %llu events in %.3f s -> %.0f events/s\n",
              static_cast<unsigned long long>(total_events), total_wall,
              total_wall > 0
                  ? static_cast<double>(total_events) / total_wall
                  : 0.0);

  // --- Scaling dimension: events/sec vs N (reusing matching runs). ---
  print_header("Scaling: events/sec vs N");
  std::vector<PerfRun> scaling;
  ConsoleTable scaling_table({"system", "N", "events", "dispatches",
                              "ev/disp", "deliv/disp", "wall s",
                              "events/s"});
  const auto add_scaling_row = [&](const PerfRun& r) {
    scaling_table.add_row({r.name, std::to_string(r.num_tors),
                           std::to_string(r.events),
                           std::to_string(r.dispatches),
                           fmt(r.events_per_dispatch(), 2),
                           fmt(r.deliveries_per_dispatch(), 2),
                           fmt(r.wall_seconds, 3),
                           fmt(r.events_per_sec(), 0)});
    scaling.push_back(r);
  };
  for (const int n : scaling_tor_counts) {
    for (const auto& sys : systems) {
      const PerfRun* reuse = nullptr;
      for (const PerfRun& r : runs) {
        if (r.num_tors == n && r.name == sys.name) {
          reuse = &r;
          break;
        }
      }
      add_scaling_row(reuse != nullptr
                          ? *reuse
                          : measure_engine(sys.name, sys.topo, sys.sched, n,
                                           load, duration));
    }
  }
  // Oblivious-only tail: the VLB data plane touches every port of every
  // busy ToR each slot, so its per-slot walk is the densest in the repo —
  // the largest-N row records how the SoA store and span delivery hold up.
  const auto& oblivious_sys = systems[2];
  for (const int n : scaling_oblivious_tor_counts) {
    const PerfRun* reuse = nullptr;
    for (const PerfRun& r : scaling) {
      if (r.num_tors == n && r.name == oblivious_sys.name) {
        reuse = &r;
        break;
      }
    }
    if (reuse != nullptr) continue;  // already covered by the full grid
    add_scaling_row(measure_engine(oblivious_sys.name, oblivious_sys.topo,
                                   oblivious_sys.sched, n, load, duration));
  }
  scaling_table.print();

  // --- Storm dimension: the fault path under a mid-run zonal burst. ---
  print_header("Storm: events/sec and goodput degradation under faults");
  std::vector<StormRun> storms;
  ConsoleTable storm_table({"system", "N", "events", "wall s", "events/s",
                            "BWstorm/BWpre", "excl churn", "blackholed"});
  for (const int n : storm_tor_counts) {
    for (const auto& sys : systems) {
      const StormRun s =
          measure_storm(sys.name, sys.topo, sys.sched, n, load, duration);
      storm_table.add_row(
          {s.run.name, std::to_string(s.run.num_tors),
           std::to_string(s.run.events), fmt(s.run.wall_seconds, 3),
           fmt(s.run.events_per_sec(), 0), fmt(s.degradation_ratio, 3),
           std::to_string(s.exclusion_churn),
           std::to_string(s.blackholed_bytes)});
      storms.push_back(s);
    }
  }
  storm_table.print();

  // --- Control-loss dimension: the lossy control plane, off/on fallback. ---
  print_header("Control loss: events/sec and damage under a lossy control "
               "plane");
  const struct {
    double drop;
    bool fallback;
    bool lossless;
    const char* label;
  } control_cfgs[] = {
      {0.0, false, true, "lossless"},
      {0.25, false, false, "drop 0.25"},
      {0.25, true, false, "drop 0.25 fallback"},
  };
  std::vector<ControlLossRun> control;
  ConsoleTable control_table({"system", "N", "config", "events/s",
                              "match ratio", "stranded MB", "fallback MB",
                              "degr slots", "dropped"});
  for (const int n : control_tor_counts) {
    for (const auto& sys : {systems[0], systems[1]}) {  // negotiator only
      for (const auto& cc : control_cfgs) {
        const ControlLossRun c = measure_control_loss(
            sys.name, sys.topo, sys.sched, n, load, duration, cc.drop,
            cc.fallback, cc.lossless, cc.label);
        control_table.add_row(
            {c.run.name, std::to_string(c.run.num_tors), c.label,
             fmt(c.run.events_per_sec(), 0), fmt(c.match_ratio, 3),
             fmt(static_cast<double>(c.stranded_bytes) / 1e6, 3),
             fmt(static_cast<double>(c.fallback_bytes) / 1e6, 3),
             std::to_string(c.degraded_slots),
             std::to_string(c.control_dropped)});
        control.push_back(c);
      }
    }
  }
  control_table.print();

  // --- Data-loss dimension: the lossy data plane, without and with ARQ. ---
  print_header("Data loss: events/sec and recovery under a lossy data plane");
  const struct {
    double drop;
    double corrupt;
    bool arq;
    bool lossless;
    const char* label;
  } data_cfgs[] = {
      {0.0, 0.0, false, true, "lossless"},
      {0.0, 0.0, false, false, "zero loss"},
      {0.05, 0.01, false, false, "drop 0.05"},
      {0.05, 0.01, true, false, "drop 0.05 arq"},
  };
  std::vector<DataLossRun> data_loss;
  bool disabled_path_ok = true;
  ConsoleTable data_table({"system", "N", "config", "events/s", "completed",
                           "dropped MB", "corrupt MB", "retx MB",
                           "rto fires", "spurious"});
  for (const int n : data_tor_counts) {
    for (const auto& sys : systems) {
      for (const auto& dc : data_cfgs) {
        const DataLossRun d = measure_data_loss(
            sys.name, sys.topo, sys.sched, n, load, duration, dc.drop,
            dc.corrupt, dc.arq, dc.lossless, dc.label);
        data_table.add_row(
            {d.run.name, std::to_string(d.run.num_tors), d.label,
             fmt(d.run.events_per_sec(), 0), std::to_string(d.run.completed),
             fmt(static_cast<double>(d.data_dropped_bytes) / 1e6, 3),
             fmt(static_cast<double>(d.data_corrupted_bytes) / 1e6, 3),
             fmt(static_cast<double>(d.retransmitted_bytes) / 1e6, 3),
             std::to_string(d.rto_fires), std::to_string(d.spurious_retx)});
        if (dc.drop == 0.0 && dc.corrupt == 0.0) {
          // A channel that is never constructed, or drops nothing, must
          // leave the run bit-identical to the plain scaling row.
          for (const PerfRun& s : scaling) {
            if (s.num_tors == n && s.name == sys.name &&
                s.result_fingerprint != d.run.result_fingerprint) {
              disabled_path_ok = false;
              std::printf(
                  "WITNESS MISMATCH: %s N=%d %s %016llx != "
                  "scaling %016llx\n",
                  sys.name, n, dc.label,
                  static_cast<unsigned long long>(d.run.result_fingerprint),
                  static_cast<unsigned long long>(s.result_fingerprint));
            }
          }
        }
        data_loss.push_back(d);
      }
    }
  }
  data_table.print();
  std::printf("lossless and zero-loss witness (rows == scaling rows): %s\n",
              disabled_path_ok ? "PASS" : "FAIL");

  // --- Sweep dimension: the fig9 grid across worker-thread counts. ---
  print_header("Sweep perf: fig9 grid points/sec vs worker threads");
  const std::vector<SweepPoint> grid = sweep_grid(sweep_tors, duration);
  std::vector<SweepPerf> sweeps;
  bool deterministic = true;
  ConsoleTable sweep_table(
      {"threads", "points", "wall s", "points/s", "speedup", "digest"});
  for (const int t : sweep_threads) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes =
        SweepEngine(static_cast<unsigned>(t)).run(grid);
    const auto t1 = std::chrono::steady_clock::now();
    SweepPerf s;
    s.threads = t;
    s.points = grid.size();
    s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    s.digest = fingerprint(outcomes);
    if (!sweeps.empty() && s.digest != sweeps.front().digest) {
      deterministic = false;
    }
    sweeps.push_back(s);
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(s.digest));
    sweep_table.add_row({std::to_string(s.threads),
                         std::to_string(s.points), fmt(s.wall_seconds, 3),
                         fmt(s.points_per_sec(), 2),
                         fmt(sweeps.front().wall_seconds / s.wall_seconds, 2),
                         digest_hex});
  }
  sweep_table.print();
  const std::string skipped = sweep_skipped_reason();
  if (!skipped.empty()) {
    std::printf("multi-thread rows skipped: %s\n", skipped.c_str());
  }
  std::printf("determinism (identical merged results at every thread "
              "count): %s\n",
              deterministic ? "PASS" : "FAIL");

  if (const char* path = std::getenv("NEG_PERF_JSON")) {
    write_json(path, runs, scaling, storms, control, data_loss, sweeps,
               sweep_tors, deterministic, skipped);
  }
  return deterministic && disabled_path_ok ? 0 : 1;
}
