// Shared helpers for the figure/table reproduction harnesses.
//
// Every bench binary prints the rows/series of one table or figure from the
// paper's evaluation (§4). Simulated durations default to a few ms (the
// paper uses 30 ms); the `NEG_DURATION_MS` environment variable scales them
// up for higher-fidelity runs. Shapes are stable at the defaults.
//
// Execution model: a bench declares its whole grid as SweepPoints, hands
// it to run_sweep() (multi-core; NEG_BENCH_THREADS workers, default
// hardware concurrency), and formats the merged, submission-ordered
// outcomes. Every point carries its own seeds, so output is byte-identical
// at any thread count — all printing happens on the main thread after the
// sweep.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/env.h"
#include "engine/runner.h"
#include "engine/sweep.h"
#include "stats/goodput_meter.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negbench {

using namespace negotiator;

/// Bench duration: `default_ms` unless NEG_DURATION_MS overrides; a value
/// outside (0, 1e9] ms exits with status 2.
inline Nanos bench_duration(double default_ms) {
  if (const char* env = std::getenv("NEG_DURATION_MS")) {
    return static_cast<Nanos>(
        parse_env_positive("NEG_DURATION_MS", env, 1e9) * kMilli);
  }
  return static_cast<Nanos>(default_ms * kMilli);
}

/// The paper's evaluation setup (§4.1) for a given system under test.
inline NetworkConfig paper_config(TopologyKind topo, SchedulerKind sched,
                                  bool priority_queues = true) {
  NetworkConfig c;
  c.topology = topo;
  c.scheduler = sched;
  c.pias.enabled = priority_queues;
  return c;
}

/// Installs the seeded lossy control plane: `drop` on requests, grants and
/// accepts, plus the delay (0.1, up to 2 epochs) and duplicate (0.05) mix
/// the lossy goldens pin, so a bench change and a golden change always
/// move together.
inline void enable_control_loss(NetworkConfig& cfg, double drop,
                                bool fallback) {
  cfg.control_fault.enabled = true;
  cfg.control_fault.request_drop = drop;
  cfg.control_fault.grant_drop = drop;
  cfg.control_fault.accept_drop = drop;
  cfg.control_fault.delay_prob = 0.1;
  cfg.control_fault.max_delay_epochs = 2;
  cfg.control_fault.duplicate_prob = 0.05;
  cfg.control_fault.fallback = fallback;
}

/// Installs the seeded lossy data plane: `drop` on every hop (first hop,
/// relay, second hop) plus per-chunk corruption `corrupt`, with or without
/// the end-host ARQ — the mix the data-loss goldens pin.
inline void enable_data_loss(NetworkConfig& cfg, double drop, double corrupt,
                             bool arq) {
  cfg.data_fault.enabled = true;
  cfg.data_fault.first_hop_drop = drop;
  cfg.data_fault.relay_drop = drop;
  cfg.data_fault.second_hop_drop = drop;
  cfg.data_fault.corrupt_prob = corrupt;
  cfg.data_fault.arq = arq;
}

/// Bytes delivered to all `num_tors` ToRs in the goodput windows that
/// start in [from, to); the meter must record windows (stats_window > 0).
inline double window_sum(const GoodputMeter& g, int num_tors, Nanos from,
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

/// Poisson Hadoop-style workload at `load` (fraction of host-aggregate).
inline std::vector<Flow> load_workload(const NetworkConfig& cfg,
                                       const SizeDistribution& sizes,
                                       double load, Nanos duration,
                                       std::uint64_t seed) {
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), load,
                        Rng(seed));
  return gen.generate(0, duration);
}

/// One standard measurement: run to `duration`, stats over the second half
/// (skipping ramp-up, as the paper's long 30 ms horizon effectively does).
inline RunResult measure(const NetworkConfig& cfg,
                         const std::vector<Flow>& flows, Nanos duration) {
  Runner runner(cfg);
  runner.add_flows(flows);
  return runner.run(duration, duration / 2);
}

/// Declares the standard measurement as a sweep point: `load_workload()`
/// seeded with `seed`, then `measure()` over the second half of `duration`.
inline SweepPoint standard_point(const NetworkConfig& cfg,
                                 const SizeDistribution& sizes, double load,
                                 Nanos duration, std::uint64_t seed,
                                 std::string label = {}) {
  SweepPoint p;
  p.config = cfg;
  p.sizes = sizes;
  p.load = load;
  p.duration = duration;
  p.measure_from = duration / 2;
  p.seed = seed;
  p.label = std::move(label);
  return p;
}

/// Declares a fully custom measurement. The body runs on a worker thread:
/// it must build all mutable state (Runner, Rng, ...) locally and only
/// return data — never print.
inline SweepPoint custom_point(
    std::function<SweepOutcome(const SweepPoint&)> body,
    std::string label = {}) {
  SweepPoint p;
  p.body = std::move(body);
  p.label = std::move(label);
  return p;
}

/// Runs the declared grid across NEG_BENCH_THREADS workers (default:
/// hardware concurrency) and returns outcomes in submission order. A
/// failed point aborts the bench loudly — partial tables would be worse
/// than no tables.
inline std::vector<SweepOutcome> run_sweep(
    const std::vector<SweepPoint>& points) {
  auto outcomes = SweepEngine().run(points);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) {
      std::fprintf(stderr, "sweep point %zu (%s) failed: %s\n", i,
                   points[i].label.empty() ? "?" : points[i].label.c_str(),
                   outcomes[i].error.c_str());
      std::exit(1);
    }
  }
  return outcomes;
}

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// FCT in ms (the unit of Fig. 9/11/13's y axis).
inline std::string fct_ms(double ns) { return fmt(ns / 1e6, 4); }

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline const double kLoads[] = {0.10, 0.25, 0.50, 0.75, 1.00};

}  // namespace negbench
