// Deterministic, composable fault-scenario timelines (ROADMAP item 4).
//
// A FaultScenario is a declarative list of fault processes — one-shot
// uniform bursts (the classic Fig. 10 injector), correlated zonal storms,
// per-link MTBF/MTTR flapping renewals, and host churn — that install()
// expands into concrete link-toggle events on a fabric's event queue (via
// FabricSim::schedule_link_event → EventQueue::schedule_link_toggle).
//
// Determinism contract: the expansion is a pure function of (the specs in
// the order they were added, the fabric's geometry, the Rng passed in).
// Every random draw comes from that Rng in a documented fixed order —
// specs expand first-to-last; within a storm, draws are per-burst (zone
// pick) then per-victim (jitter, stagger); within a flap spec, per-link
// victim selection then per-link renewal sequence; within churn, one host
// pick per event — so a given (scenario, config, seed) yields a
// bit-identical event timeline on every platform and at every thread
// count. install() never reads the clock and never touches global state
// (see common/rng.h for the RNG ownership invariant). The golden
// fingerprints in tests/test_seed_equivalence.cpp pin this contract.
//
// Link state is boolean (topo/link_state.h latches fail/repair), so
// overlapping down-windows on the same link merge with first-repair-wins
// semantics; the timeline is still fully deterministic and every
// scheduled fail has a matching repair except for uniform bursts with
// repair_at == kNeverNs.
#pragma once

#include <variant>
#include <vector>

#include "common/rng.h"
#include "engine/network.h"
#include "topo/link_state.h"
#include "workload/flow.h"

namespace negotiator {

/// One-shot uniform random link failures: `fraction` of all directed
/// links (chosen uniformly without replacement) fail at `fail_at` and
/// repair at `repair_at` (kNeverNs = never). The classic Fig. 10 drill;
/// the victims are the timeline's `fail` link events.
struct UniformBurstSpec {
  double fraction{0.05};
  Nanos fail_at{0};
  Nanos repair_at{kNeverNs};
};

/// Correlated/zonal failure storm: each burst picks a random zone — a
/// contiguous ToR group (rack row / power domain) or a port-plane (one
/// optical switch plane) — and fails *all* of its directed links within
/// `burst_window`, repairing each after `outage_ns` plus a staggered
/// random delay in [0, repair_stagger].
struct StormSpec {
  enum class Zone {
    kTorGroup,   ///< all ports of ToRs [g·group_size, (g+1)·group_size)
    kPortPlane,  ///< port p of every ToR (one switch plane, Fig. 1a)
  };
  Zone zone{Zone::kTorGroup};
  int group_size{4};        ///< ToRs per group (kTorGroup only)
  int bursts{1};            ///< number of bursts; zone re-drawn per burst
  Nanos first_burst_at{0};
  Nanos burst_interval{0};  ///< start-to-start spacing of bursts
  Nanos burst_window{10 * kMicro};   ///< fail times jitter in [0, window]
  Nanos outage_ns{100 * kMicro};     ///< minimum down time per link
  Nanos repair_stagger{10 * kMicro};  ///< extra repair jitter in [0, stagger]
};

/// Per-link flapping: `link_fraction` of all directed links (uniform,
/// without replacement) each run an independent renewal process over
/// [start_ns, end_ns): up for Exp(mtbf), then down for Exp(mttr) — or for
/// exactly `fixed_down_ns` when that is > 0, which is how tests pin
/// sub-threshold flaps that must never trip FaultPlane exclusion. Every
/// fail is paired with a repair (the last repair may land past end_ns).
struct FlapSpec {
  double link_fraction{0.05};
  Nanos mtbf_ns{200 * kMicro};  ///< mean up time between failures
  Nanos mttr_ns{20 * kMicro};   ///< mean down time (ignored if fixed)
  Nanos fixed_down_ns{0};       ///< > 0: deterministic down time per flap
  Nanos start_ns{0};
  Nanos end_ns{0};              ///< no new failures at or after this time
};

/// Host churn: `events` times, a uniformly drawn ToR's hosts leave at
/// first_leave_at + k·interval and rejoin after downtime_ns. While away,
/// every directed link of that ToR is dark (the fabric sees a zonal
/// outage), and the workload is rewritten deterministically by
/// rewrite_flows(): flows touching the ToR that would arrive inside the
/// window are aborted (kAbort) or re-queued to the rejoin time (kRequeue).
struct ChurnSpec {
  enum class Mode {
    kAbort,    ///< drop affected flows from the workload entirely
    kRequeue,  ///< move affected flows' arrival to the rejoin time
  };
  Mode mode{Mode::kRequeue};
  int events{1};
  Nanos first_leave_at{0};
  Nanos interval{0};  ///< leave-to-leave spacing of churn events
  Nanos downtime_ns{100 * kMicro};
};

/// Control-plane brownout: `windows` windows during which the lossy
/// control channel (core/control_channel.h) raises every message class's
/// drop probability to at least `drop`. Window k starts at
/// first_at + k·interval + jitter in [0, start_jitter] and lasts
/// duration_ns. Installs via FabricSim::schedule_control_brownout — a
/// no-op on fabrics without a channel (the oblivious baseline, or
/// control_fault disabled) so brownouts compose freely with the link
/// specs above, e.g. correlated with a ToR-group storm's bursts.
struct ControlBrownoutSpec {
  int windows{1};
  Nanos first_at{0};
  Nanos interval{0};        ///< start-to-start spacing of windows
  Nanos duration_ns{50 * kMicro};
  Nanos start_jitter{0};    ///< start jitter in [0, start_jitter]
  double drop{0.9};         ///< absolute drop floor while active
};

/// Data-plane loss window: `windows` windows during which the lossy data
/// channel (core/data_channel.h) raises every hop class's chunk-drop
/// probability to at least `drop`. Window k starts at
/// first_at + k·interval + jitter in [0, start_jitter] and lasts
/// duration_ns. Installs via FabricSim::schedule_data_loss — a no-op on
/// fabrics whose data channel is disabled, so data-loss windows compose
/// freely with storms and control brownouts (the combined-fault chaos
/// cases exercise all three at once).
struct DataLossSpec {
  int windows{1};
  Nanos first_at{0};
  Nanos interval{0};        ///< start-to-start spacing of windows
  Nanos duration_ns{50 * kMicro};
  Nanos start_jitter{0};    ///< start jitter in [0, start_jitter]
  double drop{0.9};         ///< absolute chunk-drop floor while active
};

/// One expanded link transition, in the exact order it was scheduled.
struct ScenarioEvent {
  Nanos when{0};
  TorId tor{0};
  PortId port{0};
  LinkDirection dir{LinkDirection::kEgress};
  bool fail{true};
};

/// One expanded churn window (input to rewrite_flows).
struct ChurnWindow {
  TorId tor{0};
  Nanos leave{0};
  Nanos rejoin{0};
  ChurnSpec::Mode mode{ChurnSpec::Mode::kRequeue};
};

/// One expanded control-plane brownout window.
struct BrownoutWindow {
  Nanos start{0};
  Nanos end{0};
  double drop{0.0};
};

/// One expanded data-plane loss window.
struct DataLossWindow {
  Nanos start{0};
  Nanos end{0};
  double drop{0.0};
};

/// What install() scheduled: the full link-event list in schedule order,
/// the churn windows for workload rewriting, the control brownout windows,
/// and the time of the last transition (run past this and the fabric's
/// links are all up — and its control plane healthy — again, unless a
/// uniform burst asked for repair_at == kNeverNs).
struct ScenarioTimeline {
  std::vector<ScenarioEvent> link_events;
  std::vector<ChurnWindow> churn;
  std::vector<BrownoutWindow> brownouts;
  std::vector<DataLossWindow> data_loss;
  Nanos last_transition{0};
  bool repairs_everything{true};  ///< false iff some fail has no repair

  std::size_t failure_count() const;
};

/// A composable, deterministic fault timeline. Build with the fluent
/// spec methods (expansion order == call order), then install() onto a
/// fabric. A scenario is immutable once installed and may be installed
/// onto any number of fabrics (each with its own Rng).
class FaultScenario {
 public:
  FaultScenario& uniform_burst(const UniformBurstSpec& spec);
  FaultScenario& storm(const StormSpec& spec);
  FaultScenario& flapping(const FlapSpec& spec);
  FaultScenario& host_churn(const ChurnSpec& spec);
  FaultScenario& control_brownout(const ControlBrownoutSpec& spec);
  FaultScenario& data_loss(const DataLossSpec& spec);

  bool empty() const { return specs_.empty(); }

  /// Expands every spec against `fabric`'s geometry, scheduling all link
  /// toggles through fabric.schedule_link_event, and returns the full
  /// timeline. Pure in (specs, fabric geometry, rng); see the determinism
  /// contract above.
  ScenarioTimeline install(FabricSim& fabric, Rng& rng) const;

  /// Applies the timeline's churn windows to a workload, in place:
  /// aborted flows are removed (stable order), re-queued flows get
  /// arrival = rejoin (chained windows resolve to a fixpoint). A no-op
  /// when the timeline has no churn. Call before FabricSim::add_flows.
  static void rewrite_flows(std::vector<Flow>& flows,
                            const ScenarioTimeline& timeline);

 private:
  using Spec = std::variant<UniformBurstSpec, StormSpec, FlapSpec, ChurnSpec,
                            ControlBrownoutSpec, DataLossSpec>;
  std::vector<Spec> specs_;
};

}  // namespace negotiator
