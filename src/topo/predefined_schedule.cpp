#include "topo/predefined_schedule.h"

#include "common/assert.h"

namespace negotiator {

PredefinedSchedule::PredefinedSchedule(TopologyKind kind, int num_tors,
                                       int ports_per_tor)
    : kind_(kind), num_tors_(num_tors), ports_per_tor_(ports_per_tor) {
  NEG_ASSERT(num_tors >= 2, "need >= 2 ToRs");
  NEG_ASSERT(ports_per_tor >= 1, "need >= 1 port");
  if (kind_ == TopologyKind::kParallel) {
    block_size_ = 0;
    slots_ = (num_tors_ - 1 + ports_per_tor_ - 1) / ports_per_tor_;
  } else {
    NEG_ASSERT(num_tors_ % ports_per_tor_ == 0,
               "thin-clos requires N divisible by S");
    block_size_ = num_tors_ / ports_per_tor_;
    slots_ = block_size_;
    lane_.resize(static_cast<std::size_t>(num_tors_));
    for (TorId src = 0; src < num_tors_; ++src) {
      lane_[static_cast<std::size_t>(src)] = src % block_size_;
    }
  }
}

int PredefinedSchedule::offset_of(PortId tx, int slot, int rotation) const {
  // Parallel network: connection opportunity index -> destination offset in
  // [1, N-1]. Capacity S*slots may exceed N-1, in which case a few offsets
  // appear twice per epoch (harmless extra connectivity).
  const int index = tx * slots_ + slot;
  return 1 + positive_mod(index + rotation, num_tors_ - 1);
}

TorId PredefinedSchedule::dst_of(TorId src, PortId tx, int slot,
                                 int rotation) const {
  NEG_ASSERT(src >= 0 && src < num_tors_, "src out of range");
  NEG_ASSERT(tx >= 0 && tx < ports_per_tor_, "tx out of range");
  NEG_ASSERT(slot >= 0 && slot < slots_, "slot out of range");
  if (kind_ == TopologyKind::kParallel) {
    const int offset = offset_of(tx, slot, rotation);
    return static_cast<TorId>((src + offset) % num_tors_);
  }
  const TorId dst = static_cast<TorId>(
      tx * block_size_ + positive_mod(src + slot + rotation, block_size_));
  return dst == src ? kInvalidTor : dst;
}

TorId PredefinedSchedule::src_of(TorId dst, PortId rx, int slot,
                                 int rotation) const {
  NEG_ASSERT(dst >= 0 && dst < num_tors_, "dst out of range");
  NEG_ASSERT(rx >= 0 && rx < ports_per_tor_, "rx out of range");
  NEG_ASSERT(slot >= 0 && slot < slots_, "slot out of range");
  if (kind_ == TopologyKind::kParallel) {
    // Plane-preserving: the sender using tx port rx reaches us.
    const int offset = offset_of(rx, slot, rotation);
    return static_cast<TorId>(positive_mod(dst - offset, num_tors_));
  }
  const TorId src = static_cast<TorId>(
      rx * block_size_ + positive_mod(dst - slot - rotation, block_size_));
  return src == dst ? kInvalidTor : src;
}

}  // namespace negotiator
