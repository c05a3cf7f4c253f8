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
//      congestion control: while m advertises a full relay buffer the
//      connection idles; there is no fallback to direct transmission).
// One packet per slot per port, 2x speedup as configured. This reproduces
// the baseline's signature behaviour: relay doubles the traffic volume and
// competes for receiver bandwidth (worst-case goodput 50%), and mice FCT is
// inflated by the detour plus FIFO head-of-line blocking at intermediates.
#pragma once

#include <vector>

#include "common/config.h"
#include "engine/network.h"

namespace negotiator {

class ObliviousFabric final : public FabricSim {
 public:
  explicit ObliviousFabric(const NetworkConfig& config,
                           Nanos stats_window_ns = 0);

  void run_until(Nanos t) override;

 private:
  // EventSink: typed events scheduled on the simulation clock.
  void on_flow_arrival(const FlowArrivalEvent& e, Nanos now) override;
  void on_transport_timer(const TransportTimerEvent& e, Nanos now) override;
  void on_relay_landed(TorId intermediate) override {
    busy_.insert(intermediate);
  }

  /// One rotor slot. Rotor slots are this fabric's epochs for the delivery
  /// plane, and a rotor cycle is its audit epoch.
  void run_slot(std::int64_t global_slot);
  /// Next backlogged destination after the spread pointer (wrapping to
  /// the first), which becomes the new pointer; kInvalidTor when none.
  TorId next_spread_dst(TorId src);

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
        stale_peers(tor) > 0 || plane_.retx_pending_from(tor);
    if (busy) {
      busy_.insert(tor);
    } else {
      busy_.erase(tor);
    }
  }

  Nanos slot_start(std::int64_t global_slot) const {
    return global_slot * slot_ns_;
  }

  /// The rotor: the predefined round-robin rule of §3.3.1 at rotation 0,
  /// applied to every slot and cycling forever. One cycle gives every
  /// ordered pair at least one connection.
  int cycle_slots_{0};  // slots per cycle
  Nanos slot_ns_;       // guardband + one scheduled slot
  std::int64_t next_slot_{0};
  std::vector<TorId> spread_ptr_;

  /// Rotor connectivity is a fixed cycle (rotation never changes), so the
  /// whole (slot-in-cycle, src, port) -> (dst, link indices) table is
  /// resolved once at construction from the predefined schedule; run_slot
  /// indexes flat 12 B records directly at [slot * N * P + src * P + port]
  /// (dst == kInvalidTor for idle).
  struct SlotConn {
    TorId dst;
    std::uint32_t tx_link;  // LinkState raw index, egress
    std::uint32_t rx_link;  // LinkState raw index, ingress
  };
  std::vector<SlotConn> conn_table_;

  ActiveSet busy_;                   // dirty set of sources with work
  std::vector<TorId> busy_scratch_;  // per-slot snapshot of busy_
  /// advertised_congested_[observer * N + peer]: did the peer's last
  /// advertisement to the observer signal a full relay buffer? (The
  /// boolean form of the advertised occupancy — the only part room checks
  /// can see, so the byte count is never stored.)
  std::vector<std::uint8_t> advertised_congested_;
  std::vector<std::int32_t> peers_believe_congested_;  // [tor]
};

}  // namespace negotiator
