// Resilience-metrics plane: quantifies how the fabric rides out a fault
// scenario (engine/fault_scenario.h).
//
// Every fabric owns one recorder, always on, and exposes it as
// FabricSim::resilience(). The fabric feeds it from four places:
//   - its link-toggle handler (injection / repair timestamps per directed
//     link),
//   - FaultPlane::end_epoch (confirmed exclusion / re-inclusion
//     transitions),
//   - the data plane (bytes transmitted into dark fibre before detection,
//     bytes delivered while some link was down), and
//   - the negotiator fabric's epoch start (grants and the accepts that
//     answered them, under a lossy control plane).
//
// It keeps only what no component counts itself. The drop, delay,
// duplication, retransmission and fallback counters live with their
// owners: ControlChannel, DataChannel, HostTransport and NegotiatorFabric
// (degraded_slots(), fallback_bytes()).
//
// Derived metrics:
//   - detection latency  = exclusion confirmed − most recent failure of
//     that directed link (how long the FaultPlane took to stop using it);
//   - recovery latency   = re-inclusion confirmed − most recent repair
//     (how long a healed link waits before carrying traffic again);
//   - exclusion churn    = total exclusions + re-inclusions (a flapping
//     plane excludes and re-includes the same port repeatedly);
//   - blackholed bytes   = transmitted into a dark, not-yet-excluded link
//     and bounced back to the queue head (wasted slots, §3.6.1);
//   - degraded delivered bytes = delivered while failed_count() > 0 (the
//     traffic the fabric routed around the outage).
//
// Determinism: the recorder only aggregates integer event data already on
// the simulation timeline and feeds nothing back, so its numbers are
// bit-identical for a fixed seed and no simulated outcome depends on it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace negotiator {

class ResilienceRecorder {
 public:
  ResilienceRecorder(int num_tors, int ports_per_tor);

  /// Fabric link-toggle hook (call after LinkState is updated).
  void on_link_toggle(Nanos now, TorId tor, PortId port, LinkDirection dir,
                      bool fail);

  /// FaultPlane::end_epoch hooks: a confirmed exclusion / re-inclusion,
  /// stamped with the epoch-end broadcast time.
  void on_exclude(Nanos now, TorId tor, PortId port, LinkDirection dir);
  void on_include(Nanos now, TorId tor, PortId port, LinkDirection dir);

  /// Bytes transmitted into a dark, not-yet-excluded link (wasted slot).
  void on_blackholed(Bytes bytes) { blackholed_bytes_ += bytes; }

  /// Bytes delivered while at least one link in the fabric was down.
  void on_degraded_delivery(Bytes bytes) {
    degraded_delivered_bytes_ += bytes;
  }

  /// Per-epoch matching outcome under loss: `grants` issued in epoch e-1,
  /// `accepts` that answered them in epoch e (Fig. 14 semantics).
  void on_control_match(std::size_t grants, std::size_t accepts) {
    control_grants_ += static_cast<std::int64_t>(grants);
    control_accepts_ += static_cast<std::int64_t>(accepts);
  }

  struct LatencyStats {
    std::int64_t count{0};
    Nanos sum{0};
    Nanos max{0};
    double mean() const {
      return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                       : 0.0;
    }
  };

  std::int64_t failures() const { return failures_; }
  std::int64_t repairs() const { return repairs_; }
  std::int64_t exclusions() const { return exclusions_; }
  std::int64_t inclusions() const { return inclusions_; }
  /// Exclusions + re-inclusions: how much the exclusion set thrashed.
  std::int64_t exclusion_churn() const { return exclusions_ + inclusions_; }
  const LatencyStats& detection() const { return detection_; }
  const LatencyStats& recovery() const { return recovery_; }
  Bytes blackholed_bytes() const { return blackholed_bytes_; }
  Bytes degraded_delivered_bytes() const { return degraded_delivered_bytes_; }

  std::int64_t control_grants() const { return control_grants_; }
  std::int64_t control_accepts() const { return control_accepts_; }
  /// Accepts / grants over the run under loss (0 when no grant was seen).
  double control_match_ratio() const {
    return control_grants_ > 0 ? static_cast<double>(control_accepts_) /
                                     static_cast<double>(control_grants_)
                               : 0.0;
  }

 private:
  struct DirState {
    Nanos last_fail{kNeverNs};
    Nanos last_repair{kNeverNs};
  };
  std::size_t index(TorId tor, PortId port, LinkDirection dir) const;

  int num_tors_;
  int ports_;
  std::vector<DirState> links_;  // [((tor·P)+port)·2 + ingress?1:0]
  std::int64_t failures_{0};
  std::int64_t repairs_{0};
  std::int64_t exclusions_{0};
  std::int64_t inclusions_{0};
  LatencyStats detection_;
  LatencyStats recovery_;
  Bytes blackholed_bytes_{0};
  Bytes degraded_delivered_bytes_{0};
  std::int64_t control_grants_{0};
  std::int64_t control_accepts_{0};
};

}  // namespace negotiator
