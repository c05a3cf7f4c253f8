// Round-robin connection rule for the predefined phase (§3.3.1).
//
// Each epoch's predefined phase is a fixed sequence of timeslots; in slot k
// every ToR's tx port p is connected to a predetermined destination so that
// every ordered pair (src, dst) meets at least once per epoch. The rule can
// be rotated between epochs so a pair traverses different physical links
// over time, which is the parallel network's fault-tolerance lever
// (§3.6.1). Thin-clos ports are pinned per pair, so rotation there only
// shifts the slot, not the link.
#pragma once

#include <vector>

#include "common/assert.h"
#include "common/config.h"
#include "common/types.h"

namespace negotiator {

class PredefinedSchedule {
 public:
  PredefinedSchedule(TopologyKind kind, int num_tors, int ports_per_tor);

  /// Timeslots per predefined phase.
  int slots() const { return slots_; }

  /// Destination that (src, tx_port) connects to in slot `slot` under
  /// rotation `rotation`; kInvalidTor for an idle (self) slot.
  TorId dst_of(TorId src, PortId tx, int slot, int rotation) const;

  /// One slot's rule under one rotation, resolved once per slot so that
  /// dst_of(rule, src, tx) costs a few adds and compares, no modulo.
  struct SlotRule {
    /// Parallel: slot + (rotation mod N-1), the opportunity index of tx
    /// port 0 before wrapping. Thin-clos: (slot + rotation) mod the block
    /// size, the shift every source's lane takes.
    int base;
  };
  SlotRule slot_rule(int slot, int rotation) const {
    NEG_ASSERT(slot >= 0 && slot < slots_, "slot out of range");
    if (kind_ == TopologyKind::kParallel) {
      return SlotRule{slot + positive_mod(rotation, num_tors_ - 1)};
    }
    return SlotRule{positive_mod(slot + rotation, block_size_)};
  }
  /// dst_of(src, tx, slot, rotation) for the slot and rotation `rule` was
  /// made from.
  TorId dst_of(const SlotRule& rule, TorId src, PortId tx) const {
    if (kind_ == TopologyKind::kParallel) {
      int index = tx * slots_ + rule.base;
      while (index >= num_tors_ - 1) index -= num_tors_ - 1;
      const TorId dst = src + 1 + index;
      return dst >= num_tors_ ? dst - num_tors_ : dst;
    }
    int lane = lane_[static_cast<std::size_t>(src)] + rule.base;
    if (lane >= block_size_) lane -= block_size_;
    const TorId dst = tx * block_size_ + lane;
    return dst == src ? kInvalidTor : dst;
  }

  /// Source connected to (dst, rx_port) in slot `slot` (inverse mapping);
  /// kInvalidTor for an idle slot.
  TorId src_of(TorId dst, PortId rx, int slot, int rotation) const;

  /// The connection (slot, tx_port) that pair (src, dst) uses first in an
  /// epoch under `rotation`. Every pair has at least one.
  struct Connection {
    int slot;
    PortId tx_port;
    PortId rx_port;
  };
  Connection pair_connection(TorId src, TorId dst, int rotation) const {
    NEG_ASSERT(src != dst, "no connection for self traffic");
    NEG_ASSERT(src >= 0 && src < num_tors_ && dst >= 0 && dst < num_tors_,
               "tor out of range");
    if (kind_ == TopologyKind::kParallel) {
      const int index = first_index(src, dst, rotation);
      const PortId tx = static_cast<PortId>(index / slots_);
      return Connection{index % slots_, tx, tx};
    }
    const PortId tx = static_cast<PortId>(dst / block_size_);
    const PortId rx = static_cast<PortId>(src / block_size_);
    const int slot = positive_mod(dst - src - rotation, block_size_);
    return Connection{slot, tx, rx};
  }

  /// Calls `fn(connection)` for *every* connection opportunity pair
  /// (src, dst) has within one epoch under `rotation`, without
  /// allocating. Thin-clos pairs meet exactly once; in the parallel
  /// network S*slots connection opportunities cover the N-1 offsets, so
  /// when capacity exceeds N-1 a few pairs meet twice — the sparse
  /// predefined phase must visit both, like the dense scan does.
  template <typename Fn>
  void for_each_pair_connection(TorId src, TorId dst, int rotation,
                                Fn&& fn) const {
    if (kind_ != TopologyKind::kParallel) {
      fn(pair_connection(src, dst, rotation));
      return;
    }
    NEG_ASSERT(src != dst, "no connection for self traffic");
    // Offsets repeat every N-1 connection opportunities, so the pair
    // meets at indices index0, index0 + (N-1), ... below S*slots.
    const int capacity = ports_per_tor_ * slots_;
    for (int index = first_index(src, dst, rotation); index < capacity;
         index += num_tors_ - 1) {
      const PortId tx = static_cast<PortId>(index / slots_);
      fn(Connection{index % slots_, tx, tx});
    }
  }

 private:
  static int positive_mod(int v, int m) { return ((v % m) + m) % m; }

  /// Parallel: the first connection-opportunity index (tx * slots + slot)
  /// that reaches dst - src under `rotation`.
  int first_index(TorId src, TorId dst, int rotation) const {
    const int offset = positive_mod(dst - src, num_tors_);
    return positive_mod(offset - 1 - rotation, num_tors_ - 1);
  }

  TopologyKind kind_;
  int num_tors_;
  int ports_per_tor_;
  int block_size_;  // thin-clos only
  int slots_;
  std::vector<int> lane_;  // thin-clos: [src] -> src mod block size

  int offset_of(PortId tx, int slot, int rotation) const;  // parallel
};

}  // namespace negotiator
