// What a scheduler may observe about local traffic state. Implemented by
// the engine; keeps the control plane honest about the information timing
// the paper assumes (each ToR sees only its own queues).
//
// Dirty-set invariants: active_sources() / active_destinations() /
// relay_active_sources() / relay_active_destinations() are maintained
// incrementally by the fabric (marked on the enqueue that makes a queue
// non-empty, cleared on the dequeue that drains it), so the per-epoch
// pipeline can iterate only ToRs with work — a quiescent epoch costs
// O(active), never O(N) or O(N^2).
#pragma once

#include "common/active_set.h"
#include "common/types.h"

namespace negotiator {

class DemandView {
 public:
  virtual ~DemandView() = default;

  /// Bytes queued at `src` towards `dst` (all priority levels).
  virtual Bytes pending_bytes(TorId src, TorId dst) const = 0;

  /// Bytes in the lowest-priority (elephant) level only (A.2.2).
  virtual Bytes elephant_bytes(TorId src, TorId dst) const = 0;

  /// Weighted HoL waiting delay of the per-destination queue (A.2.3).
  virtual Nanos weighted_hol_delay(TorId src, TorId dst, Nanos now,
                                   double alpha) const = 0;

  /// Oldest head-of-line enqueue time across levels; kNeverNs when empty
  /// (A.2.5 ProjecToR bundle waiting delay).
  virtual Nanos oldest_hol_enqueue(TorId src, TorId dst) const = 0;

  /// Total bytes ever enqueued at `src` towards `dst` (A.2.4 stateful).
  virtual Bytes cumulative_arrived(TorId src, TorId dst) const = 0;

  /// Relay-queue state at an intermediate (A.2.2 second hop).
  virtual Bytes relay_pending(TorId tor, TorId final_dst) const = 0;
  virtual Bytes relay_queue_total(TorId tor) const = 0;
  /// Final destinations with relayed bytes parked at `tor`, ascending.
  virtual const ActiveSet& relay_active_destinations(TorId tor) const = 0;
  /// ToRs holding any parked relay bytes, ascending. Default: none (only
  /// the selective-relay fabric has relay queues).
  virtual const ActiveSet& relay_active_sources() const {
    static const ActiveSet kEmpty;
    return kEmpty;
  }

  /// Destinations with pending direct data at `src`, ascending.
  virtual const ActiveSet& active_destinations(TorId src) const = 0;

  /// ToRs with pending direct data towards anyone, ascending — the outer
  /// dirty set the request-sampling stage iterates instead of all N ToRs.
  virtual const ActiveSet& active_sources() const = 0;

  /// §3.6.5 receiver-side pause: `tor`'s host-facing buffer is too full to
  /// accept new fabric traffic. Default: never paused (host plane off).
  virtual bool rx_paused(TorId /*tor*/) const { return false; }
};

}  // namespace negotiator
