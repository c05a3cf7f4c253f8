#include "tor/tor_switch.h"

#include "common/assert.h"

namespace negotiator {

TorSwitch::TorSwitch(TorId id, int num_tors, const PiasConfig& pias)
    : id_(id),
      pias_(pias),
      store_(num_tors, pias_levels(pias)),
      active_(num_tors) {
  NEG_ASSERT(num_tors >= 2, "need >= 2 ToRs");
  NEG_ASSERT(id >= 0 && id < num_tors, "ToR id out of range");
}

void TorSwitch::accept_flow(const Flow& flow, Nanos now) {
  NEG_ASSERT(flow.src == id_, "flow does not originate here");
  check_dst(flow.dst);
  const bool was_empty = store_.empty(flow.dst);
  store_.enqueue_flow(flow.dst, flow.id, flow.size, now, pias_);
  total_pending_ += flow.size;
  note_enqueued(flow.dst, was_empty);
}

std::optional<QueuedPacket> TorSwitch::dequeue_elephant_packet(
    TorId dst, Bytes max_payload) {
  check_dst(dst);
  auto packet =
      store_.dequeue_packet_at_least(dst, max_payload, store_.levels() - 1);
  if (packet) {
    total_pending_ -= packet->bytes;
    note_dequeued(dst);
  }
  return packet;
}

void TorSwitch::requeue_front(TorId dst, const QueuedPacket& packet) {
  check_dst(dst);
  const bool was_empty = store_.empty(dst);
  store_.requeue_front(dst, packet);
  total_pending_ += packet.bytes;
  note_enqueued(dst, was_empty);
}

}  // namespace negotiator
