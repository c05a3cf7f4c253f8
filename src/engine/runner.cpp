#include "engine/runner.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "stats/percentile.h"

namespace negotiator {

std::uint64_t result_fingerprint(const FabricSim& fabric, const RunResult& r) {
  std::uint64_t h = kFnv1aBasis;
  auto mix_double = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = fnv1a_mix(h, bits);
  };
  for (const FctSample& s : fabric.flows().fct().samples()) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.flow));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.size));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.arrival));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.fct));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s.group));
  }
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.completed));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.backlog));
  mix_double(r.goodput);
  mix_double(r.mean_match_ratio);
  mix_double(r.mice.p99_ns);
  mix_double(r.mice.mean_ns);
  mix_double(r.all_flows.p99_ns);
  mix_double(r.all_flows.p50_ns);
  mix_double(r.all_flows.mean_ns);
  mix_double(r.all_flows.max_ns);
  return fnv1a_mix(h, fabric.events_executed());
}

Runner::Runner(const NetworkConfig& config, Nanos stats_window_ns)
    : fabric_(make_fabric(config, stats_window_ns)) {}

RunResult Runner::run(Nanos duration, Nanos measure_from) {
  NEG_ASSERT(duration > 0, "duration must be positive");
  fabric_->fct().set_measure_from(measure_from);
  fabric_->goodput().set_measure_interval(measure_from, duration);
  fabric_->run_until(duration);

  RunResult out;
  out.mice = fabric_->fct().mice_summary();
  out.all_flows = fabric_->fct().all_summary();
  out.goodput = fabric_->goodput().normalized_goodput(config().host_rate());
  const auto ratios = fabric_->match_ratio_series();
  out.mean_match_ratio = mean(ratios);
  out.epoch_ns = config().epoch_length_ns();
  out.completed = fabric_->fct().completed();
  out.backlog = fabric_->total_backlog();
  out.censored = fabric_->flows().unfinished(measure_from, duration);
  return out;
}

Nanos Runner::finish_time_of_group(int group, std::size_t count,
                                   Nanos deadline) {
  const Nanos step = config().epoch_length_ns();
  // The completion log is append-only: a cursor visits each completion
  // once, however many epochs the wait takes.
  const FctRecorder::Samples samples = fabric_->fct().samples();
  std::size_t cursor = 0;
  std::size_t done = 0;
  Nanos finish = 0;
  auto scan = [&] {
    for (; cursor < samples.size(); ++cursor) {
      const FctSample s = samples[cursor];
      if (s.group != group) continue;
      ++done;
      finish = std::max(finish, s.arrival + s.fct);
    }
  };
  scan();
  Nanos t = fabric_->now();
  while (t < deadline && done < count) {
    t += step;
    fabric_->run_until(t);
    scan();
  }
  return done < count ? kNeverNs : finish;
}

NetworkConfig with_reconfiguration_delay(NetworkConfig config,
                                         Nanos guardband_ns) {
  NEG_ASSERT(guardband_ns > 0, "guardband must be positive");
  const Nanos base_guard = config.epoch.guardband_ns;
  config.epoch.guardband_ns = guardband_ns;
  // Keep the guardband share of the epoch fixed by stretching the
  // scheduled phase proportionally (§4.2 "the length of the scheduled
  // phase is accordingly adjusted").
  const double scale = static_cast<double>(guardband_ns) /
                       static_cast<double>(base_guard);
  config.epoch.scheduled_slots = std::max(
      1, static_cast<int>(config.epoch.scheduled_slots * scale + 0.5));
  return config;
}

}  // namespace negotiator
