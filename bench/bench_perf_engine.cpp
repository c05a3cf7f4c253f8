// Engine throughput harness: how fast does the simulator itself run?
//
// Every row runs the Fig. 9 evaluation workload (Hadoop sizes, Poisson
// arrivals at 0.5 load, seed 9) on one fig9 system at N ToRs and records
// its wall time, events, events/sec and a result fingerprint — the recipe
// the seed-equivalence goldens pin (engine/runner.h) — so each row doubles
// as a bit-identity witness at Ns the goldens don't cover. This is the
// repo's perf trajectory: each change's BENCH_perf.json is checked against
// the committed one (scripts/check_perf.py). Sections, each adding its own
// fields to the shared ones:
//   scaling       every fig9 system at N in {16, 64, 128, 256}, plus the
//                 oblivious system alone at N = 512 (the all-to-all VLB data
//                 plane is the densest per-slot walk, so it gets the
//                 largest-N row): the per-event cost trend vs fabric size,
//                 simulated ns per wall second, and the dispatch,
//                 delivery-span, predefined-visit, match and per-segment
//                 drain work counters. Each row is timed as the fastest of
//                 kScalingRepeats runs of the same input, which must all
//                 fingerprint alike.
//   storm         each system at N = 16, 64 with a mid-run ToR-group
//                 failure storm (one burst, staggered repairs): the
//                 goodput-degradation ratio (storm-phase vs pre-storm
//                 windowed goodput), exclusion churn and blackholed bytes.
//   control_loss  the negotiator systems at N = 16 under the seeded lossy
//                 control plane, without and with the per-slot oblivious
//                 fallback, plus one lossless reference row per system.
//   data_loss     each system at N = 16, 64 under the seeded lossy data
//                 plane, without and with the end-host ARQ, plus a lossless
//                 row (no channel) and a zero-loss row (channel built, every
//                 probability 0, ARQ off). Both must fingerprint-match the
//                 scaling row at the same N: the zero-loss channel keeps the
//                 negotiator's scheduled phase on the per-slot walk while
//                 the scaling run drains it per queue segment.
//   sweep         the fig9 grid (3 systems x 5 loads, N = 64) through the
//                 SweepEngine at 1, 2 and hardware-concurrency threads:
//                 points/sec and the speedup over the sequential run. The
//                 merged results are fingerprinted at every thread count to
//                 prove the determinism contract. On a 1-core host only the
//                 1-thread row runs: a multi-thread timing row there would
//                 record a meaningless ~1x speedup.
// The binary exits 1 when the sweep digests, a witness row or the repeats
// of a scaling row disagree.
//
// Environment (a malformed or out-of-range number exits with status 2):
//   NEG_DURATION_MS        simulated milliseconds per run (default 2.0)
//   NEG_PERF_SCALING_TORS  N list for the scaling section
//                          (default "16,64,128,256")
//   NEG_PERF_JSON          path to write the machine-readable results
#include <algorithm>
#include <chrono>
#include <concepts>
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

struct System {
  const char* name;
  TopologyKind topo;
  SchedulerKind sched;
};

constexpr System kSystems[] = {
    {"negotiator/parallel", TopologyKind::kParallel,
     SchedulerKind::kNegotiator},
    {"negotiator/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kNegotiator},
    {"oblivious/thin-clos", TopologyKind::kThinClos,
     SchedulerKind::kOblivious},
};
constexpr const System& kOblivious = kSystems[2];

constexpr double kLoad = 0.5;
// One run's wall time swings up to 2x on a shared host; the fastest of a
// few is the run least disturbed by it.
constexpr int kScalingRepeats = 3;
constexpr int kObliviousTailTors = 512;
constexpr int kStormTors[] = {16, 64};
constexpr int kControlTors = 16;
// N = 64 is the lossy benchmark workload's scale.
constexpr int kDataTors[] = {16, 64};
constexpr int kSweepTors = 64;

/// One named value a section adds to its rows, kept as the text both the
/// JSON and the console table print (an integer or a fixed-precision
/// double).
struct Field {
  std::string key;
  std::string text;
};

/// One timed run: the identity, the fields every section shares, and the
/// section's own fields in print order.
struct Row {
  std::string name;
  int num_tors{0};
  std::string label;  // the sub-configuration, if the section has several
  Nanos sim_ns{0};
  double wall_seconds{0};
  std::uint64_t events{0};
  std::uint64_t fingerprint{0};
  std::vector<Field> fields;

  double per_wall_sec(double v) const {
    return wall_seconds > 0 ? v / wall_seconds : 0.0;
  }
  double events_per_sec() const {
    return per_wall_sec(static_cast<double>(events));
  }
  void add(const char* key, std::integral auto value) {
    fields.push_back({key, std::to_string(value)});
  }
  void add(const char* key, double value, int precision) {
    fields.push_back({key, fmt(value, precision)});
  }
};

struct Section {
  const char* key;    // the JSON array
  const char* title;  // the console header
  std::vector<Row> rows;
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

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

NetworkConfig system_config(const System& sys, int num_tors) {
  NetworkConfig cfg = paper_config(sys.topo, sys.sched);
  cfg.num_tors = num_tors;
  return cfg;
}

/// The fig9-style grid the sweep section executes: 3 systems x 5 loads.
std::vector<SweepPoint> sweep_grid(Nanos duration) {
  std::vector<SystemRow> rows;
  for (const System& sys : kSystems) {
    rows.push_back({sys.name, system_config(sys, kSweepTors)});
  }
  std::vector<SweepPoint> points;
  add_grid(points, "sweep", rows, duration, 9);
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

/// The step every section shares: admits the Fig. 9 workload, calls
/// `prepare` (the storm installs its scenario there), times runner.run()
/// over `duration` (metrics over its second half) and returns the row with
/// its shared fields set. The run's result goes to `*result` when set.
Row timed_run(Runner& runner, const char* name, const char* label,
              Nanos duration, const std::function<void()>& prepare = {},
              RunResult* result = nullptr) {
  const NetworkConfig& cfg = runner.config();
  runner.add_flows(load_workload(cfg, SizeDistribution::hadoop(), kLoad,
                                 duration, 9));
  if (prepare) prepare();
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = runner.run(duration, duration / 2);
  const auto t1 = std::chrono::steady_clock::now();
  Row row;
  row.name = name;
  row.num_tors = cfg.num_tors;
  row.label = label;
  row.sim_ns = duration;
  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  row.events = runner.fabric().events_executed();
  row.fingerprint = result_fingerprint(runner.fabric(), r);
  if (result != nullptr) *result = r;
  return row;
}

/// One run of a scaling row: the batching factors events/dispatch (relay
/// spans) and deliveries/dispatch (final-hop deliveries per slot-close span
/// flush), and the deterministic work counts: predefined-phase connections
/// visited, scheduled-phase matches, and the epochs and (src, dst) pairs
/// the per-segment drain served (all 0 for the oblivious fabric).
Row scaling_run(const System& sys, int n, Nanos duration) {
  Runner runner(system_config(sys, n));
  RunResult r;
  Row row = timed_run(runner, sys.name, "", duration, {}, &r);
  const FabricSim& fab = runner.fabric();
  const auto* neg = dynamic_cast<const NegotiatorFabric*>(&fab);
  row.add("dispatches", fab.events_dispatched());
  row.add("events_per_dispatch", ratio(row.events, fab.events_dispatched()),
          2);
  row.add("deliveries", fab.deliveries());
  row.add("delivery_dispatches", fab.delivery_dispatches());
  row.add("deliveries_per_dispatch",
          ratio(fab.deliveries(), fab.delivery_dispatches()), 2);
  row.add("predefined_visits",
          neg != nullptr ? neg->predefined_visits() : 0);
  row.add("total_matches", neg != nullptr ? neg->total_matches() : 0);
  row.add("drain_epochs", neg != nullptr ? neg->drain_epochs() : 0);
  row.add("drain_clean_pairs", neg != nullptr ? neg->drain_clean_pairs() : 0);
  row.add("drain_dirty_pairs", neg != nullptr ? neg->drain_dirty_pairs() : 0);
  row.add("sim_ns_per_wall_sec",
          row.per_wall_sec(static_cast<double>(duration)), 1);
  row.add("flows", fab.flows().size());
  row.add("completed", r.completed);
  return row;
}

/// A scaling row timed as the fastest of kScalingRepeats runs of the same
/// input. Runs that fingerprint differently exit 1: the simulation would
/// not be deterministic.
Row measure_scaling(const System& sys, int n, Nanos duration) {
  Row best = scaling_run(sys, n, duration);
  for (int rep = 1; rep < kScalingRepeats; ++rep) {
    Row row = scaling_run(sys, n, duration);
    if (row.fingerprint != best.fingerprint) {
      std::fprintf(stderr,
                   "bench_perf_engine: %s N=%d: repeat %d fingerprint "
                   "%016llx != %016llx\n",
                   sys.name, n, rep,
                   static_cast<unsigned long long>(row.fingerprint),
                   static_cast<unsigned long long>(best.fingerprint));
      std::exit(1);
    }
    if (row.wall_seconds < best.wall_seconds) best = std::move(row);
  }
  return best;
}

Row measure_storm(const System& sys, int n, Nanos duration) {
  const NetworkConfig cfg = system_config(sys, n);
  Runner runner(cfg, /*stats_window=*/100 * kMicro);
  const Nanos phase = duration / 3;
  Row row = timed_run(runner, sys.name, "", duration, [&] {
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
  const double pre = window_sum(g, n, phase / 3, phase);
  const double during = window_sum(g, n, phase + phase / 3, 2 * phase);
  row.add("degradation_ratio", pre > 0 ? during / pre : 0.0, 4);
  const ResilienceRecorder& rec = runner.fabric().resilience();
  row.add("exclusion_churn", rec.exclusion_churn());
  row.add("blackholed_bytes", rec.blackholed_bytes());
  return row;
}

struct ControlCase {
  double drop;  // 0: the lossless reference, no channel
  bool fallback;
  const char* label;
};

constexpr ControlCase kControlCases[] = {
    {0.0, false, "lossless"},
    {0.25, false, "drop 0.25"},
    {0.25, true, "drop 0.25 fallback"},
};

/// A negotiator system under seeded control-plane loss: the damage (match
/// ratio, stranded backlog) and the fallback's contribution.
Row measure_control_loss(const System& sys, int n, Nanos duration,
                         const ControlCase& c) {
  NetworkConfig cfg = system_config(sys, n);
  if (c.drop > 0) enable_control_loss(cfg, c.drop, c.fallback);
  Runner runner(cfg);
  RunResult r;
  Row row = timed_run(runner, sys.name, c.label, duration, {}, &r);
  const auto& fab = dynamic_cast<const NegotiatorFabric&>(runner.fabric());
  const ControlChannel* channel = fab.control_channel();
  const ResilienceRecorder& rec = fab.resilience();
  row.add("match_ratio", rec.control_grants() > 0 ? rec.control_match_ratio()
                                                  : r.mean_match_ratio,
          4);
  row.add("stranded_bytes", r.backlog);
  row.add("fallback_bytes", fab.fallback_bytes());
  row.add("degraded_slots", fab.degraded_slots());
  row.add("control_dropped", channel != nullptr ? channel->dropped() : 0);
  return row;
}

struct DataCase {
  bool channel;  // false: the lossless reference, no channel
  double drop;
  double corrupt;
  bool arq;
  const char* label;
};

constexpr DataCase kDataCases[] = {
    {false, 0.0, 0.0, false, "lossless"},
    {true, 0.0, 0.0, false, "zero loss"},
    {true, 0.05, 0.01, false, "drop 0.05"},
    {true, 0.05, 0.01, true, "drop 0.05 arq"},
};

/// A system under seeded data-plane loss (core/data_channel.h), with or
/// without the end-host ARQ (tor/host_transport.h): the damage and
/// recovery counters, 0 where the run has no channel or no transport.
Row measure_data_loss(const System& sys, int n, Nanos duration,
                      const DataCase& c) {
  NetworkConfig cfg = system_config(sys, n);
  if (c.channel) enable_data_loss(cfg, c.drop, c.corrupt, c.arq);
  Runner runner(cfg);
  RunResult r;
  Row row = timed_run(runner, sys.name, c.label, duration, {}, &r);
  const DataChannel* d = runner.fabric().data_channel();
  const HostTransport* t = runner.fabric().host_transport();
  row.add("completed", r.completed);
  row.add("data_dropped_bytes", d != nullptr ? d->dropped_bytes() : 0);
  row.add("data_corrupted_bytes", d != nullptr ? d->corrupted_bytes() : 0);
  row.add("retransmitted_bytes",
          t != nullptr ? t->retransmitted_bytes() : 0);
  row.add("spurious_retx", t != nullptr ? t->spurious_retx() : 0);
  row.add("rto_fires", t != nullptr ? t->rto_fires() : 0);
  row.add("max_backoff_reached", t != nullptr ? t->max_backoff_reached() : 0);
  return row;
}

/// A data channel that is never constructed, or drops nothing, must leave
/// the run bit-identical to the scaling row of the same system and N.
bool matches_scaling(const Row& row, const std::vector<Row>& scaling) {
  for (const Row& s : scaling) {
    if (s.name == row.name && s.num_tors == row.num_tors &&
        s.fingerprint != row.fingerprint) {
      std::printf("WITNESS MISMATCH: %s N=%d %s %016llx != scaling %016llx\n",
                  row.name.c_str(), row.num_tors, row.label.c_str(),
                  static_cast<unsigned long long>(row.fingerprint),
                  static_cast<unsigned long long>(s.fingerprint));
      return false;
    }
  }
  return true;
}

/// Prints a section's console table: the identity, the shared timing
/// fields and every field the section adds.
void print_section(const Section& s) {
  print_header(s.title);
  const bool labelled = !s.rows.front().label.empty();
  std::vector<std::string> headers = {"system", "N"};
  if (labelled) headers.push_back("config");
  headers.insert(headers.end(), {"events", "wall s", "events/s"});
  for (const Field& f : s.rows.front().fields) headers.push_back(f.key);
  ConsoleTable table(headers);
  for (const Row& r : s.rows) {
    std::vector<std::string> cells = {r.name, std::to_string(r.num_tors)};
    if (labelled) cells.push_back(r.label);
    cells.insert(cells.end(), {std::to_string(r.events),
                               fmt(r.wall_seconds, 3),
                               fmt(r.events_per_sec(), 0)});
    for (const Field& f : r.fields) cells.push_back(f.text);
    table.add_row(cells);
  }
  table.print();
}

/// Writes one row as a JSON object (no trailing comma or newline).
void write_row(std::FILE* f, const Row& r) {
  std::fprintf(f, "    {\"name\": \"%s\", \"num_tors\": %d, ", r.name.c_str(),
               r.num_tors);
  if (!r.label.empty()) {
    std::fprintf(f, "\"label\": \"%s\", ", r.label.c_str());
  }
  std::fprintf(f,
               "\"sim_ns\": %lld, \"events\": %llu, \"wall_seconds\": %.6f, "
               "\"events_per_sec\": %.1f, ",
               static_cast<long long>(r.sim_ns),
               static_cast<unsigned long long>(r.events), r.wall_seconds,
               r.events_per_sec());
  for (const Field& x : r.fields) {
    std::fprintf(f, "\"%s\": %s, ", x.key.c_str(), x.text.c_str());
  }
  std::fprintf(f, "\"fingerprint\": \"%016llx\"}",
               static_cast<unsigned long long>(r.fingerprint));
}

void write_json(const char* path, const std::vector<Section>& sections,
                const std::vector<SweepPerf>& sweeps, bool deterministic,
                const std::string& skipped_reason) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_perf_engine: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"perf_engine\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(f, "  \"bench_threads\": %u,\n", SweepEngine::default_threads());
  for (const Section& s : sections) {
    std::fprintf(f, "  \"%s\": [\n", s.key);
    for (std::size_t i = 0; i < s.rows.size(); ++i) {
      write_row(f, s.rows[i]);
      std::fprintf(f, "%s\n", i + 1 < s.rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  }
  const double base_wall = sweeps.empty() ? 0.0 : sweeps.front().wall_seconds;
  std::fprintf(f, "  \"sweep\": {\"grid\": \"fig9\", \"num_tors\": %d, "
               "\"deterministic\": %s, ",
               kSweepTors, deterministic ? "true" : "false");
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
  const std::vector<int> scaling_tors =
      parse_int_list("NEG_PERF_SCALING_TORS", "16,64,128,256", 2);

  Section scaling{"scaling", "Scaling: events/sec vs N", {}};
  for (const int n : scaling_tors) {
    for (const System& sys : kSystems) {
      scaling.rows.push_back(measure_scaling(sys, n, duration));
    }
  }
  if (std::find(scaling_tors.begin(), scaling_tors.end(),
                kObliviousTailTors) == scaling_tors.end()) {
    scaling.rows.push_back(
        measure_scaling(kOblivious, kObliviousTailTors, duration));
  }
  print_section(scaling);

  Section storm{"storm",
                "Storm: events/sec and goodput degradation under faults", {}};
  for (const int n : kStormTors) {
    for (const System& sys : kSystems) {
      storm.rows.push_back(measure_storm(sys, n, duration));
    }
  }
  print_section(storm);

  Section control{"control_loss",
                  "Control loss: events/sec and damage under a lossy "
                  "control plane",
                  {}};
  for (const System& sys : {kSystems[0], kSystems[1]}) {  // negotiator only
    for (const ControlCase& c : kControlCases) {
      control.rows.push_back(
          measure_control_loss(sys, kControlTors, duration, c));
    }
  }
  print_section(control);

  Section data{"data_loss",
               "Data loss: events/sec and recovery under a lossy data plane",
               {}};
  bool disabled_path_ok = true;
  for (const int n : kDataTors) {
    for (const System& sys : kSystems) {
      for (const DataCase& c : kDataCases) {
        Row row = measure_data_loss(sys, n, duration, c);
        if (c.drop == 0.0 && c.corrupt == 0.0 &&
            !matches_scaling(row, scaling.rows)) {
          disabled_path_ok = false;
        }
        data.rows.push_back(std::move(row));
      }
    }
  }
  print_section(data);
  std::printf("lossless and zero-loss witness (rows == scaling rows): %s\n",
              disabled_path_ok ? "PASS" : "FAIL");

  // --- Sweep dimension: the fig9 grid across worker-thread counts. ---
  print_header("Sweep perf: fig9 grid points/sec vs worker threads");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::string skipped =
      hw == 1 ? "hardware_concurrency == 1: a 2-thread timing row on a "
                "1-core host records a meaningless ~1x speedup"
              : "";
  std::vector<int> sweep_threads = {1};  // the speedup baseline
  if (hw > 1) sweep_threads.push_back(2);
  if (hw > 2) sweep_threads.push_back(static_cast<int>(hw));
  const std::vector<SweepPoint> grid = sweep_grid(duration);
  std::vector<SweepPerf> sweeps;
  bool deterministic = true;
  ConsoleTable sweep_table(
      {"threads", "points", "wall s", "points/s", "speedup", "digest"});
  for (const int t : sweep_threads) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = SweepEngine(static_cast<unsigned>(t)).run(grid);
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
  if (!skipped.empty()) {
    std::printf("multi-thread rows skipped: %s\n", skipped.c_str());
  }
  std::printf("determinism (identical merged results at every thread "
              "count): %s\n",
              deterministic ? "PASS" : "FAIL");

  if (const char* path = std::getenv("NEG_PERF_JSON")) {
    write_json(path, {scaling, storm, control, data}, sweeps, deterministic,
               skipped);
  }
  return deterministic && disabled_path_ok ? 0 : 1;
}
