// Stateful scheduling (A.2.4): every destination maintains a traffic
// matrix of believed pending bytes per source. Requests carry the size of
// newly arrived data; grants are issued only while the matrix shows
// pending demand and tentatively decrement it by one epoch's capacity;
// accept/reject notices reconcile the tentative decrements.
//
// A request whose aggregate size disagrees with a depleted matrix row
// resets the row — the self-healing the paper relies on requests for
// ("the sources will send requests ... as long as currently there is
// pending data").
#pragma once

#include "core/negotiator_scheduler.h"

namespace negotiator {

class StatefulScheduler final : public NegotiatorScheduler {
 public:
  StatefulScheduler(const NetworkConfig& config, const FlatTopology& topo,
                    Rng rng);

 protected:
  void sample_requests(const DemandView& demand,
                       const FaultPlane& faults) override;
  void compute_grants(const DemandView& demand,
                      const FaultPlane& faults) override;
  void consume_accept_inbox(const DemandView& demand) override;

 private:
  Bytes& matrix(TorId dst, TorId src);

  struct Tentative {
    TorId dst;
    TorId src;
    PortId rx_port;
    Bytes amount;
    std::int64_t epoch;
  };

  std::vector<Bytes> matrix_;    // [dst * N + src]
  std::vector<Bytes> reported_;  // [src * N + dst] cumulative bytes reported
  std::vector<Tentative> tentative_;
};

}  // namespace negotiator
