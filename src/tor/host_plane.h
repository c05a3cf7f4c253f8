// Traffic management below the ToRs (§3.6.5).
//
// The optical fabric runs at a 2x speedup, so data for one ToR's hosts can
// arrive through several ports at once and accumulate in the receiver-side
// buffer before draining down the (1x) host links. The paper's remedy:
// "ToRs should monitor the length of this queue and only allow data
// transmission when buffer space is enough."
//
// HostPlane models, per ToR:
//   - a receive buffer filled by fabric deliveries and drained at the
//     host-aggregate rate (fluid model, exact at query time);
//   - a pause signal once occupancy exceeds the high watermark, cleared at
//     the low watermark (hysteresis). The scheduler consults the signal at
//     GRANT time: a paused ToR stops granting so no new scheduled traffic
//     is directed at it, and piggybacked packets towards it are withheld.
// On the sending side, host->ToR ingress uses credit-based flow control:
// the per-ToR source buffer has a byte cap, and flows arriving when it is
// full are shaped (admitted when space frees) rather than dropped.
#pragma once

#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "common/units.h"

namespace negotiator {

class HostPlane {
 public:
  HostPlane(int num_tors, Rate host_rate, const HostPlaneConfig& config);

  /// Fabric delivered `bytes` into `dst`'s receive buffer at `when`.
  void on_delivery(TorId dst, Bytes bytes, Nanos when);

  /// True when `tor` has signalled receivers-side pause (§3.6.5): sources
  /// should stop directing new data at it.
  bool rx_paused(TorId tor, Nanos when);

  /// Bytes that overflowed the receive buffer so far (with the §3.6.5
  /// gating in place this should stay zero; it is the failure indicator).
  Bytes overflow_bytes() const { return overflow_; }

  const HostPlaneConfig& config() const { return config_; }

 private:
  struct RxState {
    double occupancy{0};
    Nanos updated_at{0};
    bool paused{false};
  };
  void drain(RxState& state, Nanos when);

  Rate host_rate_;
  HostPlaneConfig config_;
  std::vector<RxState> rx_;
  Bytes overflow_{0};
};

}  // namespace negotiator
