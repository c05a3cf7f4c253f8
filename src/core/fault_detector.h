// Link-failure detection and exclusion (§3.6.1).
//
// Every predefined-phase slot carries at least a dummy message, so each
// direction of each port is observed many times per epoch. A run of
// `threshold` consecutive dark observations on an rx port flags an ingress
// failure; a run of consecutive undelivered-feedback observations on a tx
// port flags an egress failure. Detections made during an epoch are
// "broadcast" at its end and take effect (excluding the port from
// scheduling) from the next epoch; recovery is detected symmetrically when
// light returns and the port is re-included.
#pragma once

#include <vector>

#include "common/types.h"

namespace negotiator {

class ResilienceRecorder;  // stats/resilience_recorder.h

class FaultPlane {
 public:
  FaultPlane(int num_tors, int ports_per_tor, int threshold = 8);

  /// Receiver-side observation: did (dst, rx) see light this slot?
  void observe_ingress(TorId dst, PortId rx, bool received);

  /// Sender-side feedback: was the last transmission on (src, tx)
  /// delivered? (The paper carries this feedback in reverse-direction dummy
  /// messages; we model it with the detection threshold absorbing the lag.)
  void observe_egress(TorId src, PortId tx, bool delivered);

  /// Epoch boundary: applies newly confirmed detections/recoveries and
  /// hands each transition to `recorder`, stamped with `now` — the
  /// epoch-end broadcast time.
  void end_epoch(ResilienceRecorder& recorder, Nanos now);

  /// Exclusion state known network-wide (post-broadcast).
  bool tx_excluded(TorId tor, PortId port) const;
  bool rx_excluded(TorId tor, PortId port) const;

  int excluded_count() const { return excluded_count_; }

  /// True when every direction is "clean": not excluded, no pending
  /// transition, no running miss streak. While quiescent, an all-healthy
  /// observation (`observe_*(..., true)`) only bumps a hit streak that
  /// nothing will ever read (hit streaks matter only on excluded ports,
  /// and exclusion starts by zeroing them), so hot loops may skip those
  /// calls entirely without changing detection behaviour.
  bool quiescent() const { return dirty_count_ == 0; }

 private:
  struct Dir {
    int miss_streak{0};
    int hit_streak{0};
    bool excluded{false};
    bool pending_exclude{false};
    bool pending_include{false};
  };
  Dir& at(std::vector<Dir>& v, TorId tor, PortId port);
  const Dir& at(const std::vector<Dir>& v, TorId tor, PortId port) const;
  void observe(std::vector<Dir>& v, TorId tor, PortId port, bool ok);

  static bool clean(const Dir& d) {
    return !d.excluded && !d.pending_exclude && !d.pending_include &&
           d.miss_streak == 0;
  }
  /// Applies `mutate` to one direction, keeping dirty_count_ in sync.
  template <typename Fn>
  void mutate_dir(Dir& d, Fn&& mutate) {
    const bool was_clean = clean(d);
    mutate(d);
    dirty_count_ += (was_clean ? 0 : -1) + (clean(d) ? 0 : 1);
  }

  int num_tors_;
  int ports_;
  int threshold_;
  std::vector<Dir> ingress_;
  std::vector<Dir> egress_;
  int excluded_count_{0};
  int dirty_count_{0};  // directions for which !clean()
};

}  // namespace negotiator
