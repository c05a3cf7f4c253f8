// Traffic-aware selective relay for the thin-clos topology (A.2.2).
//
// Only lowest-priority (elephant) backlog above a threshold is considered
// for two-hop transmission. The source filters candidate intermediates
// whose shared tx port already carries heavy direct traffic; the
// intermediate grants a relay only when the pinned rx port is still free,
// its relay queue has room (congestion control), and its own direct
// traffic towards the final destination's block is light. Direct grants
// are always accepted before relay grants, and the engine serves direct
// data before relayed data on every link.
#pragma once

#include "core/negotiator_scheduler.h"

namespace negotiator {

class SelectiveRelayScheduler final : public NegotiatorScheduler {
 public:
  SelectiveRelayScheduler(const NetworkConfig& config,
                          const FlatTopology& topo, Rng rng);

 protected:
  void sample_requests(const DemandView& demand,
                       const FaultPlane& faults) override;
  void compute_grants(const DemandView& demand,
                      const FaultPlane& faults) override;
  void compute_accepts(const DemandView& demand,
                       const FaultPlane& faults) override;

 private:
  /// Direct bytes `src` has pending towards ToRs sharing tx port `port`.
  Bytes direct_load_on_port(const DemandView& demand, TorId src,
                            PortId port) const;
};

}  // namespace negotiator
