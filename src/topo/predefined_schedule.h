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

#include "common/assert.h"
#include "common/types.h"
#include "topo/topology.h"

namespace negotiator {

class PredefinedSchedule {
 public:
  /// The rule on `topo`, which must outlive the schedule.
  explicit PredefinedSchedule(const FlatTopology& topo) : topo_(topo) {}
  explicit PredefinedSchedule(FlatTopology&&) = delete;

  /// Timeslots per predefined phase.
  int slots() const { return topo_.predefined_slots(); }

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
    NEG_ASSERT(slot >= 0 && slot < slots(), "slot out of range");
    if (topo_.parallel()) {
      return SlotRule{slot + positive_mod(rotation, topo_.num_tors() - 1)};
    }
    return SlotRule{positive_mod(slot + rotation, topo_.block_size())};
  }
  /// dst_of(src, tx, slot, rotation) for the slot and rotation `rule` was
  /// made from.
  TorId dst_of(const SlotRule& rule, TorId src, PortId tx) const {
    const int n = topo_.num_tors();
    if (topo_.parallel()) {
      int index = tx * slots() + rule.base;
      while (index >= n - 1) index -= n - 1;
      const TorId dst = src + 1 + index;
      return dst >= n ? dst - n : dst;
    }
    // A source's lane is its position inside its block.
    const int block = topo_.block_size();
    int lane = src - topo_.block_of(src) * block + rule.base;
    if (lane >= block) lane -= block;
    const TorId dst = tx * block + lane;
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
    NEG_ASSERT(src >= 0 && src < topo_.num_tors() && dst >= 0 &&
                   dst < topo_.num_tors(),
               "tor out of range");
    if (topo_.parallel()) {
      const int index = first_index(src, dst, rotation);
      const PortId tx = static_cast<PortId>(index / slots());
      return Connection{index % slots(), tx, topo_.rx_port(src, tx)};
    }
    const PortId tx = topo_.fixed_tx_port(src, dst);
    const int slot = positive_mod(dst - src - rotation, topo_.block_size());
    return Connection{slot, tx, topo_.rx_port(src, tx)};
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
    if (!topo_.parallel()) {
      fn(pair_connection(src, dst, rotation));
      return;
    }
    NEG_ASSERT(src != dst, "no connection for self traffic");
    // Offsets repeat every N-1 connection opportunities, so the pair
    // meets at indices index0, index0 + (N-1), ... below S*slots.
    const int capacity = topo_.ports_per_tor() * slots();
    for (int index = first_index(src, dst, rotation); index < capacity;
         index += topo_.num_tors() - 1) {
      const PortId tx = static_cast<PortId>(index / slots());
      fn(Connection{index % slots(), tx, topo_.rx_port(src, tx)});
    }
  }

 private:
  static int positive_mod(int v, int m) { return ((v % m) + m) % m; }

  /// Parallel: the first connection-opportunity index (tx * slots + slot)
  /// that reaches dst - src under `rotation`.
  int first_index(TorId src, TorId dst, int rotation) const {
    const int n = topo_.num_tors();
    return positive_mod(positive_mod(dst - src, n) - 1 - rotation, n - 1);
  }

  int offset_of(PortId tx, int slot, int rotation) const;  // parallel

  const FlatTopology& topo_;
};

}  // namespace negotiator
