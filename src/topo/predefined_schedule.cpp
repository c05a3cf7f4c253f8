#include "topo/predefined_schedule.h"

#include "common/assert.h"

namespace negotiator {

int PredefinedSchedule::offset_of(PortId tx, int slot, int rotation) const {
  // Parallel network: connection opportunity index -> destination offset in
  // [1, N-1]. Capacity S*slots may exceed N-1, in which case a few offsets
  // appear twice per epoch (harmless extra connectivity).
  const int index = tx * slots() + slot;
  return 1 + positive_mod(index + rotation, topo_.num_tors() - 1);
}

TorId PredefinedSchedule::dst_of(TorId src, PortId tx, int slot,
                                 int rotation) const {
  const int n = topo_.num_tors();
  NEG_ASSERT(src >= 0 && src < n, "src out of range");
  NEG_ASSERT(tx >= 0 && tx < topo_.ports_per_tor(), "tx out of range");
  NEG_ASSERT(slot >= 0 && slot < slots(), "slot out of range");
  if (topo_.parallel()) {
    return static_cast<TorId>((src + offset_of(tx, slot, rotation)) % n);
  }
  const int block = topo_.block_size();
  const TorId dst = static_cast<TorId>(
      tx * block + positive_mod(src + slot + rotation, block));
  return dst == src ? kInvalidTor : dst;
}

TorId PredefinedSchedule::src_of(TorId dst, PortId rx, int slot,
                                 int rotation) const {
  const int n = topo_.num_tors();
  NEG_ASSERT(dst >= 0 && dst < n, "dst out of range");
  NEG_ASSERT(rx >= 0 && rx < topo_.ports_per_tor(), "rx out of range");
  NEG_ASSERT(slot >= 0 && slot < slots(), "slot out of range");
  if (topo_.parallel()) {
    // Plane-preserving: the sender using tx port rx reaches us.
    return static_cast<TorId>(
        positive_mod(dst - offset_of(rx, slot, rotation), n));
  }
  // Thin-clos: rx port g hears block g.
  const int block = topo_.block_size();
  const TorId src = static_cast<TorId>(
      rx * block + positive_mod(dst - slot - rotation, block));
  return src == dst ? kInvalidTor : src;
}

}  // namespace negotiator
