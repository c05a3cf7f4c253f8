// Traffic-oblivious baseline fabric (Sirius [4] / RotorNet-style, §2, §4.1).
//
// The network reconfigures on a fixed round-robin schedule regardless of
// demand; Valiant load balancing adapts the traffic to the network by
// spreading ALL data across the network before routing it to the final
// destination ("uniforming the traffic pattern to all-to-all", §2) — every
// byte takes two hops unless the randomly chosen intermediate happens to be
// the destination. On each slot connection src -> m the source sends, in
// priority order:
//   1. second-hop relay data parked at src whose final destination is m;
//   2. VLB spread of its own queued data (PIAS priority at sources only,
//      §4.1): the next backlogged destination d in round-robin order is
//      detoured through m (delivered directly in the lucky d == m case),
//      gated by m's last advertised relay occupancy (the baseline's
//      congestion control, with direct transmission to m as the fallback).
// One packet per slot per port, 2x speedup as configured. This reproduces
// the baseline's signature behaviour: relay doubles the traffic volume and
// competes for receiver bandwidth (worst-case goodput 50%), and mice FCT is
// inflated by the detour plus FIFO head-of-line blocking at intermediates.
#pragma once

#include <memory>
#include <vector>

#include "common/config.h"
#include "engine/network.h"
#include "oblivious/rotor_schedule.h"

namespace negotiator {

class ObliviousFabric final : public FabricSim, private EventSink {
 public:
  explicit ObliviousFabric(const NetworkConfig& config,
                           Nanos stats_window_ns = 0);

  void run_until(Nanos t) override;
  GoodputMeter& goodput() override { return goodput_; }
  LinkState& links() override { return links_; }
  const NetworkConfig& config() const override { return config_; }
  Bytes total_backlog() const override;
  std::uint64_t deliveries() const override { return deliveries_; }
  std::uint64_t delivery_dispatches() const override {
    return delivery_dispatches_;
  }
  void schedule_link_event(Nanos when, TorId tor, PortId port,
                           LinkDirection dir, bool fail) override;
  void schedule_data_loss(Nanos start, Nanos end,
                          double drop_floor) override;
  void set_resilience(ResilienceRecorder* recorder) override;

  Nanos cycle_length_ns() const { return rotor_.cycle_length_ns(); }

  /// Lossy data channel (null when data_fault is disabled).
  const DataChannel* data_channel() const { return data_.get(); }
  /// End-host ARQ transport (null unless data_fault.enabled && .arq).
  const HostTransport* host_transport() const { return transport_.get(); }
  /// Byte-conservation auditor (null unless armed).
  const ConservationAuditor* conservation_auditor() const {
    return auditor_.get();
  }

 private:
  // EventSink: typed events scheduled on the simulation clock.
  void on_flow_arrival(const FlowArrivalEvent& e, Nanos now) override;
  void on_link_toggle(const LinkToggleEvent& e, Nanos now) override;
  void on_relay_train(const RelayTrainEvent& e, const RelayTrainChunk* chunks,
                      Nanos now) override;
  void on_transport_timer(const TransportTimerEvent& e, Nanos now) override;

  void run_slot(std::int64_t global_slot);
  /// Drains the slot's staged second-hop/direct deliveries as one span:
  /// a single FlowTable credit walk and one goodput span at the shared
  /// arrival time, in the dequeue order the inline calls used.
  void flush_deliveries(Nanos arrival);
  /// Next backlogged destination after the spread pointer, skipping
  /// `exclude`; kInvalidTor when none.
  TorId next_spread_dst(TorId src, TorId exclude);

  // --- Sparse slot scan (the demand-driven pipeline, oblivious side) ---
  //
  // A slot connection src -> m is a complete no-op when src has no queued
  // data (no VLB spread), no parked relay bytes (no second hop), and the
  // occupancy advertisement would not change anything m can observe.
  // run_slot therefore visits only the ToRs in busy_ — the dirty set of
  // sources for which at least one condition fails — and replicates the
  // dense per-connection logic exactly, so output is bit-identical to the
  // full N x P scan.
  //
  // The advertisement's only observable effect is the receiver's future
  // room check `advertised occupancy < relay_queue_capacity`, so only the
  // *congested boolean* at advert time matters, not the byte count. Each
  // ToR tracks how many peers currently believe it is congested
  // (peers_believe_congested_); a source whose belief census disagrees
  // with its actual state stays busy until its connections have told
  // everyone. Congestion flips (a relay queue crossing capacity) are rare,
  // so a drained ToR goes quiet immediately in the common case.

  bool congested(TorId tor) const {
    return relay_[static_cast<std::size_t>(tor)].total_bytes() >=
           config_.oblivious.relay_queue_capacity;
  }
  /// Peers whose advertised view of `tor` disagrees with its state now.
  int stale_peers(TorId tor) const {
    const int believers = peers_believe_congested_[static_cast<std::size_t>(tor)];
    return congested(tor) ? config_.num_tors - 1 - believers : believers;
  }
  /// Re-derives `tor`'s busy_ membership from the conditions (plus
  /// pending ARQ retransmissions, which are owed rotor slots too).
  void update_busy(TorId tor) {
    const bool busy =
        !tors_[static_cast<std::size_t>(tor)].active_destinations().empty() ||
        relay_[static_cast<std::size_t>(tor)].total_bytes() > 0 ||
        stale_peers(tor) > 0 ||
        (transport_ && transport_->has_retx_from(tor));
    if (busy) {
      busy_.insert(tor);
    } else {
      busy_.erase(tor);
    }
  }

  NetworkConfig config_;
  std::unique_ptr<FlatTopology> topo_;
  RotorSchedule rotor_;
  std::vector<TorSwitch> tors_;
  std::vector<RelayQueueSet> relay_;
  GoodputMeter goodput_;
  LinkState links_;
  std::int64_t next_slot_{0};
  std::vector<TorId> spread_ptr_;

  /// Rotor connectivity is a fixed cycle (rotation never changes), so the
  /// whole (slot-in-cycle, src, port) -> (dst, rx, link indices) table is
  /// resolved once at construction; run_slot indexes flat records directly
  /// at [slot * N * P + src * P + port] (dst == kInvalidTor for idle).
  struct SlotConn {
    TorId dst;
    PortId rx;
    std::uint32_t tx_link;  // LinkState raw index, egress
    std::uint32_t rx_link;  // LinkState raw index, ingress
  };
  std::vector<SlotConn> conn_table_;

  /// Slot-local staging for final-destination deliveries (second-hop and
  /// lucky d == m spreads); flushed once per slot by flush_deliveries.
  /// The dequeues themselves stay inline — congestion adverts read the
  /// relay totals live mid-slot — only the downstream effects batch.
  std::vector<DeliveryRecord> delivery_build_;
  std::uint64_t deliveries_{0};
  std::uint64_t delivery_dispatches_{0};

  ActiveSet busy_;                   // dirty set of sources with work
  std::vector<TorId> busy_scratch_;  // per-slot snapshot of busy_
  /// advertised_congested_[observer * N + peer]: did the peer's last
  /// advertisement to the observer signal a full relay buffer? (The
  /// boolean form of last_occupancy_ — the only part room checks can see.)
  std::vector<std::uint8_t> advertised_congested_;
  std::vector<std::int32_t> peers_believe_congested_;  // [tor]

  // --- Lossy data plane (core/data_channel.h + tor/host_transport.h) ---
  //
  // Same disabled-≡-never-constructed contract as the negotiator fabric;
  // the channel samples loss windows per rotor slot (the oblivious
  // epoch), and the auditor runs at each cycle boundary.
  std::unique_ptr<DataChannel> data_;
  std::unique_ptr<HostTransport> transport_;
  std::unique_ptr<ConservationAuditor> auditor_;
  Bytes injected_bytes_{0};
  Bytes transit_bytes_{0};  // spread train chunks not yet landed
  void audit_conservation(std::int64_t cycle);
};

}  // namespace negotiator
