#include "engine/fault_scenario.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace negotiator {

std::size_t ScenarioTimeline::failure_count() const {
  return static_cast<std::size_t>(
      std::count_if(link_events.begin(), link_events.end(),
                    [](const ScenarioEvent& e) { return e.fail; }));
}

FaultScenario& FaultScenario::uniform_burst(const UniformBurstSpec& spec) {
  NEG_ASSERT(spec.fraction >= 0.0 && spec.fraction <= 1.0,
             "fraction out of range");
  NEG_ASSERT(spec.fail_at >= 0, "fail_at must be non-negative");
  specs_.emplace_back(spec);
  return *this;
}

FaultScenario& FaultScenario::storm(const StormSpec& spec) {
  NEG_ASSERT(spec.bursts >= 1, "storm needs at least one burst");
  NEG_ASSERT(spec.group_size >= 1, "storm group_size must be >= 1");
  NEG_ASSERT(spec.first_burst_at >= 0 && spec.burst_window >= 0 &&
                 spec.outage_ns >= 1 && spec.repair_stagger >= 0 &&
                 (spec.bursts == 1 || spec.burst_interval >= 1),
             "storm timing out of range");
  specs_.emplace_back(spec);
  return *this;
}

FaultScenario& FaultScenario::flapping(const FlapSpec& spec) {
  NEG_ASSERT(spec.link_fraction >= 0.0 && spec.link_fraction <= 1.0,
             "link_fraction out of range");
  NEG_ASSERT(spec.start_ns >= 0 && spec.end_ns >= spec.start_ns,
             "flap window out of range");
  NEG_ASSERT(spec.mtbf_ns >= 1 &&
                 (spec.fixed_down_ns > 0 || spec.mttr_ns >= 1),
             "flap renewal means must be >= 1ns");
  specs_.emplace_back(spec);
  return *this;
}

FaultScenario& FaultScenario::host_churn(const ChurnSpec& spec) {
  NEG_ASSERT(spec.events >= 1, "churn needs at least one event");
  NEG_ASSERT(spec.first_leave_at >= 0 && spec.downtime_ns >= 1 &&
                 (spec.events == 1 || spec.interval >= 1),
             "churn timing out of range");
  specs_.emplace_back(spec);
  return *this;
}

FaultScenario& FaultScenario::control_brownout(
    const ControlBrownoutSpec& spec) {
  NEG_ASSERT(spec.windows >= 1, "brownout needs at least one window");
  NEG_ASSERT(spec.first_at >= 0 && spec.duration_ns >= 1 &&
                 spec.start_jitter >= 0 &&
                 (spec.windows == 1 || spec.interval >= 1),
             "brownout timing out of range");
  NEG_ASSERT(spec.drop >= 0.0 && spec.drop <= 1.0,
             "brownout drop out of range");
  specs_.emplace_back(spec);
  return *this;
}

FaultScenario& FaultScenario::data_loss(const DataLossSpec& spec) {
  NEG_ASSERT(spec.windows >= 1, "data loss needs at least one window");
  NEG_ASSERT(spec.first_at >= 0 && spec.duration_ns >= 1 &&
                 spec.start_jitter >= 0 &&
                 (spec.windows == 1 || spec.interval >= 1),
             "data-loss timing out of range");
  NEG_ASSERT(spec.drop >= 0.0 && spec.drop <= 1.0,
             "data-loss drop out of range");
  specs_.emplace_back(spec);
  return *this;
}

namespace {

struct DirectedLink {
  TorId tor;
  PortId port;
  LinkDirection dir;
};

/// All 2·N·P directed links in (tor asc, port asc, egress-then-ingress)
/// order — the exact universe (and order) the legacy injector built, which
/// the uniform-burst expansion must reproduce draw-for-draw.
std::vector<DirectedLink> link_universe(int num_tors, int ports) {
  std::vector<DirectedLink> all;
  all.reserve(static_cast<std::size_t>(2 * num_tors * ports));
  for (TorId t = 0; t < num_tors; ++t) {
    for (PortId p = 0; p < ports; ++p) {
      all.push_back(DirectedLink{t, p, LinkDirection::kEgress});
      all.push_back(DirectedLink{t, p, LinkDirection::kIngress});
    }
  }
  return all;
}

/// Partial Fisher-Yates: after this, the first min(target, all.size())
/// entries are a uniform sample without replacement. Identical draw
/// sequence to the legacy injector (one next_below per selected victim).
void select_victims(std::vector<DirectedLink>& all, std::size_t target,
                    Rng& rng) {
  for (std::size_t i = 0; i < target && i < all.size(); ++i) {
    const auto j = static_cast<std::size_t>(
        i + rng.next_below(static_cast<std::int64_t>(all.size() - i)));
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(target, all.size()));
}

/// Uniform draw in [0, span] (inclusive); zero draws are skipped entirely
/// so a zero-jitter spec consumes no randomness.
Nanos jitter(Rng& rng, Nanos span) {
  return span > 0 ? rng.next_below(span + 1) : 0;
}

Nanos exp_draw(Rng& rng, Nanos mean) {
  const double v = rng.next_exponential(static_cast<double>(mean));
  return std::max<Nanos>(1, static_cast<Nanos>(std::llround(v)));
}

class Expander {
 public:
  Expander(FabricSim& fabric, Rng& rng, ScenarioTimeline& timeline)
      : fabric_(fabric),
        rng_(rng),
        timeline_(timeline),
        num_tors_(fabric.config().num_tors),
        ports_(fabric.config().ports_per_tor) {}

  void operator()(const UniformBurstSpec& s) {
    auto all = link_universe(num_tors_, ports_);
    const auto target = static_cast<std::size_t>(
        s.fraction * static_cast<double>(all.size()) + 0.5);
    select_victims(all, target, rng_);
    for (const DirectedLink& link : all) {
      schedule(s.fail_at, link, /*fail=*/true);
      if (s.repair_at != kNeverNs) {
        schedule(s.repair_at, link, /*fail=*/false);
      } else {
        timeline_.repairs_everything = false;
      }
    }
  }

  void operator()(const StormSpec& s) {
    for (int b = 0; b < s.bursts; ++b) {
      const Nanos burst_start = s.first_burst_at + b * s.burst_interval;
      zone_scratch_.clear();
      if (s.zone == StormSpec::Zone::kTorGroup) {
        const int group_size = std::min(s.group_size, num_tors_);
        const int groups = num_tors_ / group_size;
        const TorId first =
            static_cast<TorId>(rng_.next_below(groups)) * group_size;
        for (TorId t = first; t < first + group_size; ++t) {
          for (PortId p = 0; p < ports_; ++p) {
            zone_scratch_.push_back(DirectedLink{t, p, LinkDirection::kEgress});
            zone_scratch_.push_back(
                DirectedLink{t, p, LinkDirection::kIngress});
          }
        }
      } else {
        const PortId plane = static_cast<PortId>(rng_.next_below(ports_));
        for (TorId t = 0; t < num_tors_; ++t) {
          zone_scratch_.push_back(
              DirectedLink{t, plane, LinkDirection::kEgress});
          zone_scratch_.push_back(
              DirectedLink{t, plane, LinkDirection::kIngress});
        }
      }
      for (const DirectedLink& link : zone_scratch_) {
        const Nanos fail_at = burst_start + jitter(rng_, s.burst_window);
        const Nanos repair_at =
            fail_at + s.outage_ns + jitter(rng_, s.repair_stagger);
        schedule(fail_at, link, /*fail=*/true);
        schedule(repair_at, link, /*fail=*/false);
      }
    }
  }

  void operator()(const FlapSpec& s) {
    auto all = link_universe(num_tors_, ports_);
    const auto target = static_cast<std::size_t>(
        s.link_fraction * static_cast<double>(all.size()) + 0.5);
    select_victims(all, target, rng_);
    for (const DirectedLink& link : all) {
      Nanos t = s.start_ns;
      while (true) {
        t += exp_draw(rng_, s.mtbf_ns);
        if (t >= s.end_ns) break;
        const Nanos down = s.fixed_down_ns > 0 ? s.fixed_down_ns
                                               : exp_draw(rng_, s.mttr_ns);
        schedule(t, link, /*fail=*/true);
        schedule(t + down, link, /*fail=*/false);
        t += down;
      }
    }
  }

  void operator()(const ChurnSpec& s) {
    for (int k = 0; k < s.events; ++k) {
      const Nanos leave = s.first_leave_at + k * s.interval;
      const Nanos rejoin = leave + s.downtime_ns;
      const TorId host = static_cast<TorId>(rng_.next_below(num_tors_));
      for (PortId p = 0; p < ports_; ++p) {
        for (const LinkDirection dir :
             {LinkDirection::kEgress, LinkDirection::kIngress}) {
          schedule(leave, DirectedLink{host, p, dir}, /*fail=*/true);
          schedule(rejoin, DirectedLink{host, p, dir}, /*fail=*/false);
        }
      }
      timeline_.churn.push_back(ChurnWindow{host, leave, rejoin, s.mode});
    }
  }

  void operator()(const ControlBrownoutSpec& s) {
    for (int k = 0; k < s.windows; ++k) {
      const Nanos start =
          s.first_at + k * s.interval + jitter(rng_, s.start_jitter);
      const Nanos end = start + s.duration_ns;
      fabric_.schedule_control_brownout(start, end, s.drop);
      timeline_.brownouts.push_back(BrownoutWindow{start, end, s.drop});
      timeline_.last_transition = std::max(timeline_.last_transition, end);
    }
  }

  void operator()(const DataLossSpec& s) {
    for (int k = 0; k < s.windows; ++k) {
      const Nanos start =
          s.first_at + k * s.interval + jitter(rng_, s.start_jitter);
      const Nanos end = start + s.duration_ns;
      fabric_.schedule_data_loss(start, end, s.drop);
      timeline_.data_loss.push_back(DataLossWindow{start, end, s.drop});
      timeline_.last_transition = std::max(timeline_.last_transition, end);
    }
  }

 private:
  void schedule(Nanos when, const DirectedLink& link, bool fail) {
    fabric_.schedule_link_event(when, link.tor, link.port, link.dir, fail);
    timeline_.link_events.push_back(
        ScenarioEvent{when, link.tor, link.port, link.dir, fail});
    timeline_.last_transition = std::max(timeline_.last_transition, when);
  }

  FabricSim& fabric_;
  Rng& rng_;
  ScenarioTimeline& timeline_;
  int num_tors_;
  int ports_;
  std::vector<DirectedLink> zone_scratch_;
};

}  // namespace

ScenarioTimeline FaultScenario::install(FabricSim& fabric, Rng& rng) const {
  ScenarioTimeline timeline;
  Expander expand(fabric, rng, timeline);
  for (const Spec& spec : specs_) std::visit(expand, spec);
  return timeline;
}

void FaultScenario::rewrite_flows(std::vector<Flow>& flows,
                                  const ScenarioTimeline& timeline) {
  if (timeline.churn.empty()) return;
  std::size_t out = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    Flow f = flows[i];
    bool drop = false;
    // A requeue can land the flow inside a later window, so iterate to a
    // fixpoint (bounded: each pass either stops or strictly advances the
    // arrival to some window's rejoin time).
    bool moved = true;
    while (moved && !drop) {
      moved = false;
      for (const ChurnWindow& w : timeline.churn) {
        if (f.src != w.tor && f.dst != w.tor) continue;
        if (f.arrival < w.leave || f.arrival >= w.rejoin) continue;
        if (w.mode == ChurnSpec::Mode::kAbort) {
          drop = true;
          break;
        }
        f.arrival = w.rejoin;
        moved = true;
      }
    }
    if (!drop) flows[out++] = f;
  }
  flows.resize(out);
}

}  // namespace negotiator
