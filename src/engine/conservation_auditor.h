// Byte-conservation auditor for the lossy data plane: every byte a
// workload injects must be accounted for at every epoch boundary.
//
// The DeliveryPlane (engine/delivery_plane.h) assembles a
// ConservationLedger snapshot (the fabric's O(N) queue sums plus running
// counters) at the end of each epoch (negotiator) or rotor cycle
// (oblivious) and hands it to check(), which asserts the conservation
// identity:
//
//   without ARQ:  injected = source_queued + relay_parked + in_transit
//                            + delivered + dropped + corrupted
//   with ARQ:     injected = source_queued + arq_unresolved + delivered
//                            + arq_abandoned
//
// With ARQ the transport's unresolved bucket subsumes relay_parked,
// in_transit, and every dropped-awaiting-retransmit byte (a unit stays
// unresolved from first transmit until its first arrival or abandonment
// — see tor/host_transport.h), and the transport's own receiver-side
// delivered ledger must agree with the FlowTable's credit total, which
// check() also asserts.
//
// Arming follows MatchingValidator's contract: constructed whenever the
// data channel exists and config.validate_matching is set — and always
// in !NDEBUG (debug/sanitizer) builds. A violation aborts via
// NEG_ASSERT. Absent (the default in release), the ledger is never
// assembled.
#pragma once

#include <cstdint>

#include "common/assert.h"
#include "common/types.h"

namespace negotiator {

struct ConservationLedger {
  Bytes injected{0};       ///< accepted into source ToR queues so far
  Bytes source_queued{0};  ///< fresh bytes still in ToR dest queues
  Bytes relay_parked{0};   ///< bytes parked at intermediates (non-ARQ)
  Bytes in_transit{0};     ///< relay bytes on the delay line (non-ARQ)
  Bytes delivered{0};      ///< FlowTable credit total
  Bytes dropped{0};        ///< channel drops (terminal without ARQ)
  Bytes corrupted{0};      ///< channel corruptions (terminal without ARQ)
  Bytes arq_unresolved{0}; ///< ARQ: transmitted, before first arrival
  Bytes arq_delivered{0};  ///< ARQ: transport's receiver-side credit
  Bytes arq_abandoned{0};  ///< ARQ: max_retries exceeded (terminal)
};

class ConservationAuditor {
 public:
  explicit ConservationAuditor(bool arq) : arq_(arq) {}

  void check(std::int64_t epoch, const ConservationLedger& l) {
    (void)epoch;
    ++checks_;
    if (arq_) {
      NEG_ASSERT(l.delivered == l.arq_delivered,
                 "conservation: transport and FlowTable delivery ledgers "
                 "disagree");
      NEG_ASSERT(l.injected == l.source_queued + l.arq_unresolved +
                                   l.delivered + l.arq_abandoned,
                 "conservation: injected != queued + unresolved + "
                 "delivered + abandoned");
    } else {
      NEG_ASSERT(l.injected == l.source_queued + l.relay_parked +
                                   l.in_transit + l.delivered + l.dropped +
                                   l.corrupted,
                 "conservation: injected != queued + parked + transit + "
                 "delivered + dropped + corrupted");
    }
  }

  std::int64_t checks() const { return checks_; }

 private:
  bool arq_;
  std::int64_t checks_{0};
};

}  // namespace negotiator
