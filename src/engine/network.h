// The simulated fabric: epoch-driven execution of control plane, data
// plane, and statistics. Two implementations share this interface — the
// NegotiaToR fabric (two-phase epochs, §3.3) defined here and the
// traffic-oblivious rotor fabric (Sirius-style baseline) in
// oblivious/oblivious_scheduler.h — and both hand every packet to the same
// end-host delivery path (engine/delivery_plane.h).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/config.h"
#include "common/types.h"
#include "core/control_channel.h"
#include "core/demand_view.h"
#include "core/epoch.h"
#include "core/fault_detector.h"
#include "core/matching_validator.h"
#include "core/negotiator_scheduler.h"
#include "engine/delivery_plane.h"
#include "sim/event_queue.h"
#include "sim/relay_delay_line.h"
#include "stats/fct_recorder.h"
#include "stats/goodput_meter.h"
#include "topo/link_state.h"
#include "topo/predefined_schedule.h"
#include "topo/topology.h"
#include "tor/relay_queue.h"
#include "tor/tor_switch.h"
#include "workload/flow.h"

namespace negotiator {

class ResilienceRecorder;  // stats/resilience_recorder.h

class FabricSim : private EventSink {
 public:
  virtual ~FabricSim() = default;

  /// The single admission path for both fabrics. Checks every flow, adds
  /// them to the FlowTable in input order (so a flow's table index is its
  /// input position past the flows admitted before), then hands their
  /// arrivals to the event queue as one batch sorted stably by arrival
  /// time. Arrivals fire in (time, admission order), exactly as if each
  /// flow had been admitted alone. Every `arrival` must be >= now().
  void add_flows(std::span<const Flow> flows);
  /// A batch of one.
  void add_flow(const Flow& flow) { add_flows({&flow, 1}); }

  /// Advances simulated time to `t` (whole epochs/slots are processed).
  virtual void run_until(Nanos t) = 0;
  Nanos now() const { return now_; }

  FctRecorder& fct() { return plane_.flows().fct(); }
  const FlowTable& flows() const { return plane_.flows(); }
  GoodputMeter& goodput() { return goodput_; }
  LinkState& links() { return links_; }
  const NetworkConfig& config() const { return config_; }

  /// Bytes the fabric still owes service to: queued at sources and relays,
  /// plus, under ARQ, every unit between first transmit and first arrival
  /// (in flight, dropped and awaiting its RTO, or queued for a retransmit
  /// slot), so drain loops keep simulated time moving until the pending
  /// timers fire and the retransmissions land. (Under ARQ a chunk parked
  /// at a relay counts twice; the overlap is harmless for a drain signal.)
  /// With ARQ off, first-hop relay chunks still on the delay line are in
  /// none of these terms: the sum can read 0 up to one propagation delay
  /// before the last relayed bytes land (ROADMAP item 11).
  Bytes total_backlog() const;

  /// Logical events executed so far (perf accounting for
  /// bench_perf_engine): every event the queue ran plus every relay chunk
  /// that landed.
  std::uint64_t events_executed() const {
    return events_.executed() + relay_line_.landed_chunks();
  }

  /// Physical dispatches behind events_executed(): one per event the
  /// queue ran and one per landed relay span, so executed/dispatched is
  /// the data plane's mean batching factor.
  std::uint64_t events_dispatched() const {
    return events_.executed() + relay_line_.landed_spans();
  }

  /// Final-destination packet deliveries that rode a coalesced per-slot
  /// delivery span so far (second-hop relay + direct data).
  std::uint64_t deliveries() const { return plane_.deliveries(); }

  /// Coalesced delivery walks flushed so far (at most one per slot);
  /// deliveries() / delivery_dispatches() is the delivery-side batching
  /// factor — the second-hop mirror of events/dispatches on the enqueue
  /// side.
  std::uint64_t delivery_dispatches() const { return plane_.dispatches(); }

  /// Per-epoch accepts/grants ratio (Fig. 14); empty for the oblivious
  /// fabric, which has no matching step.
  virtual std::vector<double> match_ratio_series() const { return {}; }

  /// Schedules a link failure (fail=true) or repair at absolute time
  /// `when`.
  void schedule_link_event(Nanos when, TorId tor, PortId port,
                           LinkDirection dir, bool fail) {
    events_.schedule_link_toggle(when, LinkToggleEvent{tor, port, dir, fail});
  }

  /// Schedules a control-plane brownout window [start, end) with an
  /// absolute message-drop floor (engine/fault_scenario.h,
  /// ControlBrownoutSpec). Default no-op: fabrics without a lossy control
  /// channel — the oblivious baseline, or a negotiator fabric with
  /// control_fault disabled — tolerate brownout scenarios silently.
  virtual void schedule_control_brownout(Nanos /*start*/, Nanos /*end*/,
                                         double /*drop_floor*/) {}

  /// Schedules a data-plane loss window [start, end) with an absolute
  /// chunk-drop floor (engine/fault_scenario.h, DataLossSpec). A fabric
  /// whose data channel is disabled tolerates data-loss scenarios
  /// silently — same contract as brownouts above.
  void schedule_data_loss(Nanos start, Nanos end, double drop_floor) {
    plane_.add_loss_window(start, end, drop_floor);
  }

  /// Ports currently excluded by the fault-detection plane (counted per
  /// direction; 0 for fabrics without detection, e.g. the oblivious
  /// baseline, and for an idle fault plane).
  virtual int excluded_ports() const { return 0; }

  /// Attaches an optional resilience-metrics sink (see
  /// stats/resilience_recorder.h). The recorder must outlive the fabric
  /// or be detached with set_resilience(nullptr). Null — the default —
  /// keeps every hot path byte-identical to a recorder-free build. The
  /// drop, retransmission and fallback counters are kept by their owners
  /// instead: data_channel(), host_transport(),
  /// NegotiatorFabric::control_channel(), degraded_slots() and
  /// fallback_bytes().
  void set_resilience(ResilienceRecorder* recorder) {
    resilience_ = recorder;
    plane_.set_resilience(recorder);
  }

  /// Lossy data channel (null when data_fault is disabled).
  const DataChannel* data_channel() const { return plane_.data_channel(); }
  /// End-host ARQ transport (null unless data_fault.enabled && .arq).
  const HostTransport* host_transport() const {
    return plane_.host_transport();
  }
  /// Byte-conservation auditor (null unless armed; see
  /// engine/conservation_auditor.h).
  const ConservationAuditor* conservation_auditor() const {
    return plane_.auditor();
  }
  /// §3.6.5 host plane, when enabled in the config (else nullptr).
  HostPlane* host_plane() const { return plane_.host_plane(); }

 protected:
  /// Validates `config` and builds the state both fabrics share; the relay
  /// queues exist only when `relay` is set. `stats_window_ns` > 0 enables
  /// per-ToR bandwidth time series.
  FabricSim(const NetworkConfig& config, Nanos stats_window_ns, bool relay);

  /// Audits byte conservation at the end of `epoch` when the auditor is
  /// armed.
  void audit(std::int64_t epoch);

  /// Advances the clock to `t` (never backwards): fires every event due by
  /// `t`, then lands every relay span due by `t` at its intermediate's
  /// relay queues. No event handler reads relay state, and the slot walks
  /// read it only after advancing, so the two orders are
  /// indistinguishable.
  void advance_to(Nanos t);

  /// Marks `intermediate` as holding parked relay bytes after a chunk
  /// landed there.
  virtual void on_relay_landed(TorId intermediate) = 0;

  // EventSink: link toggles act the same on both fabrics.
  void on_link_toggle(const LinkToggleEvent& e, Nanos now) final;

  /// Flow arrivals, link toggles and ARQ timers (sim/event_queue.h);
  /// declared first, since plane_ holds a reference to it.
  EventQueue events_;
  Nanos now_{0};
  NetworkConfig config_;
  std::vector<TorSwitch> tors_;
  std::vector<RelayQueueSet> relay_;  // empty unless the fabric relays
  /// First-hop relay chunks in flight; the slot walks append and close one
  /// span per slot, advance_to() lands them.
  RelayDelayLine relay_line_;
  GoodputMeter goodput_;
  LinkState links_;
  DeliveryPlane plane_;
  ResilienceRecorder* resilience_{nullptr};
  /// Last, so the members the slot walks touch keep their places: declared
  /// right after config_, it slowed fig9_oblivious_thinclos by ~2 % (30
  /// interleaved negbench pairs on a 4-core VM).
  FlatTopology topo_;
};

/// NegotiaToR fabric: predefined + scheduled phases per epoch.
class NegotiatorFabric final : public FabricSim, public DemandView {
 public:
  /// `stats_window_ns` > 0 enables per-ToR bandwidth time series.
  explicit NegotiatorFabric(const NetworkConfig& config,
                            Nanos stats_window_ns = 0);

  void run_until(Nanos t) override;
  std::vector<double> match_ratio_series() const override {
    return ratio_series_;
  }
  /// Predefined-phase connections visited so far, sparse and dense slots
  /// alike (deterministic work count).
  std::uint64_t predefined_visits() const { return predefined_visits_; }
  void schedule_control_brownout(Nanos start, Nanos end,
                                 double drop_floor) override;
  int excluded_ports() const override { return faults_.excluded_count(); }

  // DemandView:
  Bytes pending_bytes(TorId src, TorId dst) const override;
  Bytes elephant_bytes(TorId src, TorId dst) const override;
  Nanos weighted_hol_delay(TorId src, TorId dst, Nanos now,
                           double alpha) const override;
  Nanos oldest_hol_enqueue(TorId src, TorId dst) const override;
  Bytes cumulative_arrived(TorId src, TorId dst) const override;
  Bytes relay_pending(TorId tor, TorId final_dst) const override;
  Bytes relay_queue_total(TorId tor) const override;
  const ActiveSet& relay_active_destinations(TorId tor) const override;
  const ActiveSet& relay_active_sources() const override;
  const ActiveSet& active_destinations(TorId src) const override;
  const ActiveSet& active_sources() const override;
  bool rx_paused(TorId tor) const override;

  std::int64_t current_epoch() const { return epoch_; }

  /// Scheduled-phase utilization counters (diagnostics / ablations):
  /// matches established, match-slots offered, match-slots that carried a
  /// packet, piggyback packets sent.
  std::int64_t total_matches() const { return total_matches_; }
  std::int64_t match_slots_offered() const { return match_slots_offered_; }
  std::int64_t match_slots_used() const { return match_slots_used_; }
  std::int64_t piggyback_packets() const { return piggyback_packets_; }
  /// Scheduled-phase path counters: epochs drained per queue segment, and
  /// the (src, dst) pairs those epochs drained in one pass (clean) or slot
  /// by slot (dirty: a flow for the pair landed mid-phase). Every other
  /// epoch ran the per-slot walk.
  std::int64_t drain_epochs() const { return drain_epochs_; }
  std::int64_t drain_clean_pairs() const { return drain_clean_pairs_; }
  std::int64_t drain_dirty_pairs() const { return drain_dirty_pairs_; }

  /// Lossy control channel (null when control_fault is disabled).
  const ControlChannel* control_channel() const { return control_.get(); }
  /// Scheduled slots in which the oblivious fallback delivered data, and
  /// the bytes it moved (0 unless control_fault.fallback).
  std::int64_t degraded_slots() const { return degraded_slots_; }
  Bytes fallback_bytes() const { return fallback_bytes_; }

 private:
  // EventSink: typed events scheduled on the simulation clock.
  void on_flow_arrival(const FlowArrivalEvent& e, Nanos now) override;
  void on_transport_timer(const TransportTimerEvent& e, Nanos now) override;
  void on_relay_landed(TorId intermediate) override {
    NEG_ASSERT(relay_enabled_, "relay chunk without selective relay");
    relay_active_.insert(intermediate);
  }

  void run_epoch();
  void run_predefined_phase();
  /// Picks the scheduled phase's path for this epoch (see the drain block
  /// below) and runs it.
  void run_scheduled_phase();
  /// The per-slot walk: every slot visits every match not marked drained.
  void run_scheduled_slots();

  /// Graceful degradation under control-plane loss (config-gated by
  /// control_fault.fallback): sources whose negotiation yielded no match
  /// this epoch spread one payload per free tx port per scheduled slot
  /// using the predefined (rotor) round-robin rule — direct hits only, on
  /// port pairs not booked by any real match and with both links up. The
  /// global scheduled-slot counter cycles the rule so an unmatched source
  /// reaches every destination over consecutive slots.
  void run_fallback_slot();
  /// Epoch setup for the fallback: books matched tx/rx ports and snapshots
  /// the unmatched-but-active source list (ascending, deterministic).
  void prepare_fallback_epoch();

  /// Maintains active_sources_ / relay_active_ after a queue mutation at
  /// `tor` (dirty-set invariant: the fabric marks on fill, clears on
  /// drain; schedulers only read).
  void sync_source_activity(TorId tor) {
    if (tors_[static_cast<std::size_t>(tor)].active_destinations().empty()) {
      active_sources_.erase(tor);
    } else {
      active_sources_.insert(tor);
    }
  }
  void sync_relay_activity(TorId tor) {
    if (relay_[static_cast<std::size_t>(tor)].total_bytes() > 0) {
      relay_active_.insert(tor);
    } else {
      relay_active_.erase(tor);
    }
  }

  PredefinedSchedule schedule_;
  EpochTiming timing_;
  bool relay_enabled_;  // selective-relay variant: relay_ is built
  FaultPlane faults_;
  std::unique_ptr<NegotiatorScheduler> scheduler_;
  std::int64_t epoch_{0};
  std::size_t prev_epoch_grants_{0};
  std::vector<double> ratio_series_;
  /// [src * N + dst], cumulative bytes arrived: the stateful variant's
  /// demand and the per-slot walk's drained mark read it.
  std::vector<Bytes> arrived_;
  std::int64_t total_matches_{0};
  std::int64_t match_slots_offered_{0};
  std::int64_t match_slots_used_{0};
  std::int64_t piggyback_packets_{0};
  std::uint64_t predefined_visits_{0};
  /// Pause state advertised to senders during the previous predefined
  /// phase; refreshed once per epoch.
  std::vector<bool> pause_advertised_;

  // --- Sparse predefined phase (the demand-driven epoch pipeline) ---
  //
  // Instead of scanning all slots×N×P connections (O(N^2) per epoch), each
  // epoch gathers only the *interesting* pairs — pairs with outgoing
  // control messages (scheduler_->epoch_out_pairs()) plus pairs with
  // piggyback data (active_sources_ × their active destinations) and
  // pairs owed a retransmission — and marks each pair's connection(s)
  // under this epoch's rotation (PredefinedSchedule::
  // for_each_pair_connection) in one occupancy bitmap per slot
  // (predef_marks_). A connection's key src * ports_per_tor + tx is unique
  // within a slot, so marking a pair twice is harmless and the ascending
  // key order of a bitmap walk is exactly the dense scan's (src, tx) visit
  // order: no sort, no per-pair dedupe. Every mark into slot k lands
  // before slot k is visited (at epoch start, or from a handler that the
  // slot's advance_to dispatches); marks into slots already run are
  // skipped, and a visit never marks.
  //
  // Dirty-set invariants:
  //  - who marks: gather_predefined_pair() (at epoch start, and from
  //    on_flow_arrival / on_transport_timer for work landing mid-phase);
  //  - who clears: run_predefined_phase(), slot by slot — a healthy slot
  //    after visiting its marks, an unhealthy slot without visiting them —
  //    so every bitmap is empty again when the phase ends. Clearing or
  //    walking an empty slot costs O(1) (ActiveSet's member count);
  //  - a slot whose links are unhealthy falls back to the dense scan so
  //    the fault detector still observes every connection.

  /// Marks pair (src, dst)'s connections for the current epoch/rotation
  /// in the per-slot bitmaps (only slots still ahead of the cursor).
  void gather_predefined_pair(TorId src, TorId dst);
  /// Sparse walk of one healthy slot: visits its marked connections in
  /// ascending (src, tx) order, then clears them.
  void run_predefined_slot_sparse(int slot,
                                  const PredefinedSchedule::SlotRule& rule);
  /// Dense fallback for one slot: visits all N×P connections (unhealthy
  /// slots, where every link must be observed).
  void run_predefined_slot_dense(const PredefinedSchedule::SlotRule& rule);
  /// Visits one connection (shared by sparse and dense paths). Only an
  /// unhealthy visit resolves the rx port and reads link health.
  /// Deliveries are staged; the slot's close flushes them as one span.
  void visit_predefined_conn(TorId src, PortId tx, TorId dst, bool healthy);

  /// [slot] -> marked connection keys src * ports_per_tor + tx.
  std::vector<ActiveSet> predef_marks_;
  int predef_rotation_{0};  // rotation of the epoch being gathered
  int predef_cursor_{0};    // slot currently being processed
  bool in_predefined_phase_{false};

  // --- Scheduled phase, per-slot walk: the drained mark ---
  //
  // An over-scheduled match spends most of its 30 slots with a drained
  // queue (§3.5). When the walk finds a match's queue empty it marks the
  // match with its pair's arrived_ count and skips it in later slots while
  // that count is unchanged. arrived_ grows on every flow arrival and on
  // nothing else, and arrivals fire only in the advance_to before a slot,
  // so a flow landing mid-phase for the pair wakes the match for that very
  // slot, at its own place in the walk. Relay-enabled fabrics never mark:
  // parked second-hop data refills a pair without an arrival. Under ARQ
  // the walk is not the dense visit order: a retransmission that a timer
  // queues mid-phase for a marked pair moves no arrived_ count, so the
  // pair's retransmit slot waits for the next epoch (ROADMAP item 11).
  struct ActiveMatch {
    Match m;
    Bytes relay_remaining;
    Bytes drained_at;  // pair's arrived_ when last found drained, else -1
  };
  std::vector<ActiveMatch> sched_matches_;  // this epoch's matches

  // --- Scheduled phase, per-segment drain ---
  //
  // The matching is fixed for the whole phase, so when nothing couples one
  // (src, dst) pair to another — no data channel, ARQ, relay, fallback or
  // host plane; every link up at slot 0; no link toggle or timer due
  // before the last slot starts — each pair is served for the whole
  // phase in one pass, drawing whole runs of packets per queue segment
  // (TorSwitch::take_run). A pair with m matches moves up to m packets per
  // slot: packet j rides slot j / m on member j % m (members in ascending
  // match index), exactly as the per-slot walk would send it. A pair one
  // of whose flows lands mid-phase is dirty and drains slot by slot after
  // each advance_to instead. A pair's drain costs O(runs), not O(slots):
  // completions are logged at the end of the phase in (slot, match index)
  // order; goodput is booked per (pair, goodput bucket), the run of slots
  // whose arrivals GoodputMeter::bucket files alike, so a run splits only
  // where it crosses a bucket edge; and the per-slot packet counts are a
  // difference array summed once per phase, counting one dispatch per
  // slot that delivered. All of it lands as the per-slot walk's would.
  struct DrainPair {
    std::uint32_t pair;     // src * N + dst
    std::uint32_t first;    // position of its first member in drain_order_
    std::uint32_t members;  // matches for this pair
    bool dirty;
  };
  struct DrainCompletion {
    std::uint64_t order;  // slot << 32 | match index
    int flow;
  };
  /// Drains the phase per queue segment; clock ends where the walk's does.
  void drain_scheduled_phase();
  /// Serves pair `p` over slots [first_slot, end_slot).
  void drain_pair(const DrainPair& p, int first_slot, int end_slot);
  /// When data sent in scheduled slot `slot` of this epoch arrives.
  Nanos scheduled_arrival(int slot) const {
    return timing_.scheduled_slot_end(epoch_, slot) +
           config_.propagation_delay_ns;
  }
  std::vector<std::uint64_t> drain_order_;  // (pair << 32 | index), sorted
  std::vector<DrainPair> drain_pairs_;      // ascending pair
  std::vector<DrainCompletion> drain_completions_;
  std::vector<std::int64_t> drain_slot_packets_;  // per-slot packet deltas
  std::vector<int> drain_bucket_end_;  // [slot] -> end of its goodput bucket
  std::int64_t drain_epochs_{0};
  std::int64_t drain_clean_pairs_{0};
  std::int64_t drain_dirty_pairs_{0};

  /// Dirty sets of ToRs with pending direct data / parked relay bytes.
  ActiveSet active_sources_;
  ActiveSet relay_active_;

  // --- Lossy control plane (core/control_channel.h) ---
  //
  // Owned here, consulted by the scheduler at its exchange points. Absent
  // (the default) every path above is byte-identical to a channel-free
  // build — the goldens pin this.
  std::unique_ptr<ControlChannel> control_;
  /// Per-epoch matching invariant checks (core/matching_validator.h);
  /// created when config.validate_matching is set, and always in
  /// !NDEBUG builds.
  std::unique_ptr<MatchingValidator> validator_;

  // Fallback state (empty unless control_fault.fallback):
  /// Epochs a source must stay active-but-unmatched before the fallback
  /// engages for it (see prepare_fallback_epoch).
  static constexpr int kFallbackStarvationEpochs = 2;
  std::vector<std::int64_t> fb_tx_stamp_;  // [src*P+tx] -> booked epoch
  std::vector<std::int64_t> fb_rx_stamp_;  // [dst*P+rx] -> booked epoch
  std::vector<int> fb_starved_;            // consecutive unmatched epochs
  std::vector<TorId> fb_sources_;          // persistently starved sources
  std::int64_t sched_slot_counter_{0};     // global, cycles the rotor rule
  std::int64_t degraded_slots_{0};
  Bytes fallback_bytes_{0};
};

/// Builds the fabric matching `config.scheduler` (NegotiaToR family or the
/// traffic-oblivious baseline). Validates the config.
std::unique_ptr<FabricSim> make_fabric(const NetworkConfig& config,
                                       Nanos stats_window_ns = 0);

}  // namespace negotiator
