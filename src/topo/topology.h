// Connectivity of an AWGR-based flat topology (Fig. 1).
//
// Both topologies are "planar": data leaving src's tx port p arrives on
// one rx port of whichever destination that port reaches, so the rx port
// depends on (src, tx) only.
//  - Parallel network (Fig. 1a): S high-port-count AWGRs, one per plane.
//    Every ToR's port p attaches to AWGR p, so plane p is a full N x N
//    crossbar and a transmission keeps its plane: rx = tx.
//  - Thin-clos (Fig. 1b): ToRs form S blocks of B = N/S consecutive
//    indices. AWGR (p, g), of W = B ports, takes the tx ports p of block
//    g and fans out to the rx ports g of block p. A pair (s, d) is pinned
//    to one port pair, tx = block(d) at the source and rx = block(s) at
//    the destination: the "identical ports" of §3.6.1.
//
// This value class is the one owner of those rules. The fabrics, the
// schedulers, the matching engine, the matching validator and the
// predefined schedule ask it instead of keeping their own copies; every
// query is inline.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.h"
#include "common/config.h"
#include "common/types.h"

namespace negotiator {

class FlatTopology {
 public:
  FlatTopology(TopologyKind kind, int num_tors, int ports_per_tor)
      : kind_(kind),
        num_tors_(num_tors),
        ports_per_tor_(ports_per_tor),
        predefined_slots_(
            predefined_slot_count(kind, num_tors, ports_per_tor)) {
    NEG_ASSERT(num_tors >= 2, "topology needs >= 2 ToRs");
    NEG_ASSERT(ports_per_tor >= 1, "topology needs >= 1 port");
    if (parallel()) return;
    NEG_ASSERT(num_tors % ports_per_tor == 0,
               "thin-clos requires num_tors divisible by ports_per_tor");
    block_size_ = num_tors / ports_per_tor;
    block_.resize(static_cast<std::size_t>(num_tors));
    for (TorId t = 0; t < num_tors; ++t) {
      block_[static_cast<std::size_t>(t)] = t / block_size_;
    }
  }
  explicit FlatTopology(const NetworkConfig& config)
      : FlatTopology(config.topology, config.num_tors, config.ports_per_tor) {
  }

  TopologyKind kind() const { return kind_; }
  bool parallel() const { return kind_ == TopologyKind::kParallel; }
  int num_tors() const { return num_tors_; }
  int ports_per_tor() const { return ports_per_tor_; }
  /// Timeslots per predefined phase (one all-to-all round, §3.3.1).
  int predefined_slots() const { return predefined_slots_; }

  /// Thin-clos only: ToRs per block (= the AWGR port count W), and the
  /// block a ToR belongs to.
  int block_size() const { return block_size_; }
  int block_of(TorId tor) const {
    return block_[static_cast<std::size_t>(tor)];
  }

  /// True when src's tx port `tx` can reach `dst` (src != dst implied).
  bool reachable(TorId src, PortId tx, TorId dst) const {
    NEG_ASSERT(tx >= 0 && tx < ports_per_tor_, "tx port out of range");
    if (src == dst || src < 0 || dst < 0 || src >= num_tors_ ||
        dst >= num_tors_) {
      return false;
    }
    return parallel() || block_of(dst) == tx;
  }

  /// The rx port on which data sent from (src, tx) arrives, at any
  /// destination that port reaches.
  PortId rx_port(TorId src, PortId tx) const {
    return parallel() ? tx : block_of(src);
  }

  /// True when some transmission from `src` lands on rx port `rx`: any
  /// port in the parallel network, only the port of src's block in
  /// thin-clos.
  bool lands_on(TorId src, PortId rx) const {
    return parallel() || block_of(src) == rx;
  }

  /// The unique tx port for (src, dst), or kInvalidPort when any port
  /// works (parallel network).
  PortId fixed_tx_port(TorId src, TorId dst) const {
    NEG_ASSERT(src != dst, "no port for self traffic");
    return parallel() ? kInvalidPort : block_of(dst);
  }

  /// The tx port that a grant from `dst` naming rx port `rx` pins at the
  /// granted source: the same plane in the parallel network, dst's block
  /// in thin-clos.
  PortId grant_tx_port(TorId dst, PortId rx) const {
    return parallel() ? rx : block_of(dst);
  }

  /// Sources able to reach (dst, rx), ascending. Defines GRANT-ring
  /// membership.
  std::vector<TorId> rx_sources(TorId dst, PortId rx) const {
    NEG_ASSERT(rx >= 0 && rx < ports_per_tor_, "rx port out of range");
    return parallel() ? range_without(0, num_tors_, dst)
                      : range_without(rx * block_size_, block_size_, dst);
  }

  /// Destinations reachable from (src, tx), ascending. Defines
  /// ACCEPT-ring membership.
  std::vector<TorId> tx_destinations(TorId src, PortId tx) const {
    NEG_ASSERT(tx >= 0 && tx < ports_per_tor_, "tx port out of range");
    return parallel() ? range_without(0, num_tors_, src)
                      : range_without(tx * block_size_, block_size_, src);
  }

 private:
  /// The ids [first, first + count) except `self`, ascending.
  static std::vector<TorId> range_without(TorId first, int count,
                                          TorId self) {
    std::vector<TorId> out;
    out.reserve(static_cast<std::size_t>(count));
    for (TorId t = first; t < first + count; ++t) {
      if (t != self) out.push_back(t);
    }
    return out;
  }

  TopologyKind kind_;
  int num_tors_;
  int ports_per_tor_;
  int predefined_slots_;
  int block_size_{0};
  std::vector<int> block_;  // thin-clos: [tor] -> block
};

}  // namespace negotiator
