// Per-port directed link health (§3.6.1). Egress (ToR tx -> AWGR) and
// ingress (AWGR -> ToR rx) fibres fail independently; the paper detects the
// two directions separately "to prevent overreaction and simplify
// maintenance".
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace negotiator {

class LinkState {
 public:
  LinkState(int num_tors, int ports_per_tor);

  void fail(TorId tor, PortId port, LinkDirection dir);
  void repair(TorId tor, PortId port, LinkDirection dir);
  bool is_up(TorId tor, PortId port, LinkDirection dir) const;

  int failed_count() const { return failed_count_; }
  int total_links() const { return 2 * num_tors_ * ports_per_tor_; }

  /// Raw-index fast path for precomputed hot loops: resolve the flat index
  /// of a directed link once, then poll its health with a plain bit read.
  std::size_t raw_index(TorId tor, PortId port, LinkDirection dir) const {
    return (static_cast<std::size_t>(tor) * ports_per_tor_ + port) * 2 +
           (dir == LinkDirection::kIngress ? 1 : 0);
  }
  bool up_raw(std::size_t raw) const { return up_[raw]; }

  /// True when no link anywhere is down — lets hot loops skip per-link
  /// health reads entirely in the common healthy-fabric case.
  bool all_up() const { return failed_count_ == 0; }

 private:
  std::size_t index(TorId tor, PortId port, LinkDirection dir) const;

  int num_tors_;
  int ports_per_tor_;
  std::vector<bool> up_;
  int failed_count_{0};
};

}  // namespace negotiator
