// Convenience façade used by examples, tests and benchmarks: build a
// fabric, feed flows, run for a duration, collect the paper's metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/config.h"
#include "engine/network.h"
#include "stats/fct_recorder.h"

namespace negotiator {

struct RunResult {
  FctSummary mice;        ///< mice flows (< 10 KB), all groups
  FctSummary all_flows;   ///< every flow
  double goodput{0.0};    ///< normalized to host-aggregate bandwidth
  double mean_match_ratio{0.0};  ///< Fig. 14 accepts/grants (0 if n/a)
  Nanos epoch_ns{0};      ///< epoch (or rotor-cycle) length, for unit talk
  std::size_t completed{0};
  Bytes backlog{0};       ///< bytes still queued at the end
  /// Flows arriving in [measure_from, duration) still unfinished at the
  /// horizon: the samples the summaries above are missing.
  std::size_t censored{0};
};

/// FNV-1a offset basis: the starting value of every fingerprint.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// One FNV-1a step per byte of `bits`, least significant byte first.
inline std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t bits) {
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over a run's complete observable output: every FCT sample
/// (flow, size, arrival, fct, group), then `r`'s completed count,
/// backlog, goodput, match ratio and FCT summaries, then the fabric's
/// events_executed(). The seed-equivalence goldens and the
/// BENCH_perf.json row fingerprints pin this recipe.
std::uint64_t result_fingerprint(const FabricSim& fabric, const RunResult& r);

class Runner {
 public:
  explicit Runner(const NetworkConfig& config, Nanos stats_window_ns = 0);

  FabricSim& fabric() { return *fabric_; }
  const NetworkConfig& config() const { return fabric_->config(); }

  void add_flows(std::span<const Flow> flows) { fabric_->add_flows(flows); }

  /// Runs until `duration`; metrics cover [measure_from, duration).
  RunResult run(Nanos duration, Nanos measure_from = 0);

  /// Keeps running (in epoch-sized steps, up to `deadline`) until `count`
  /// flows of `group` completed; returns the completion instant of the last
  /// one, or kNeverNs on timeout. Used for incast/all-to-all finish times.
  Nanos finish_time_of_group(int group, std::size_t count, Nanos deadline);

 private:
  std::unique_ptr<FabricSim> fabric_;
};

/// Sweeps the Fig. 8 knob: scales the scheduled phase with the guardband so
/// the reconfiguration overhead ratio stays fixed (§4.2).
NetworkConfig with_reconfiguration_delay(NetworkConfig config,
                                         Nanos guardband_ns);

}  // namespace negotiator
