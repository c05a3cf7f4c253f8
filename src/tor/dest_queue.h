// Per-destination queues inside a ToR (§3.1): "One ToR maintains a FIFO
// queue for each of the other ToRs in the network." With PIAS enabled each
// queue is a strict-priority set of FIFOs; packets are always drawn from
// the highest-priority non-empty level, preserving FIFO order within a
// level, which keeps per-pair data in order (§3.6.5).
//
// Storage is structure-of-arrays: one segment arena per DestQueueSet (a
// flat vector of Segment records recycled through a LIFO free list, grown
// on demand and kept) threaded into per-(queue, level) FIFOs by flat
// head/tail index arrays. Per-queue byte totals, per-level byte counters,
// head-of-line timestamps and a non-empty-level bitmask live in their own
// contiguous arrays, so the fabric's per-destination reads (`pending_to`,
// HoL ages, the dequeue level pick) are flat loads instead of pointer
// chases through N std::deque objects.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.h"
#include "common/config.h"
#include "common/types.h"
#include "tor/pias.h"

namespace negotiator {

/// One packet's worth of queued data handed to the fabric.
struct QueuedPacket {
  FlowId flow;
  Bytes bytes;       // payload bytes in this packet
  int level;         // priority level it was drawn from
  Nanos enqueued_at; // when its segment entered the queue
};

/// A run of packets of one flow drawn from one queue segment
/// (DestQueueSet::take_run): `packets` packets carrying `bytes` in total,
/// each a full payload except the last, which carries `last_bytes`.
struct PacketRun {
  FlowId flow{0};
  Bytes bytes{0};
  std::uint32_t packets{0};  // 0: the queue was empty
  Bytes last_bytes{0};
};

/// A set of per-destination priority FIFOs sharing one segment arena.
/// Queue index is the destination; a ToR owns one set spanning all of its
/// N-1 peers.
class DestQueueSet {
 public:
  DestQueueSet(int num_queues, int levels);

  /// Enqueues a flow into queue `q`, split across priority levels per
  /// `pias`.
  void enqueue_flow(int q, FlowId flow, Bytes size, Nanos now,
                    const PiasConfig& pias);

  /// Enqueues raw bytes at a specific level (relay traffic, retransmits).
  void enqueue_bytes(int q, FlowId flow, Bytes bytes, Nanos now, int level) {
    NEG_ASSERT(bytes > 0, "cannot enqueue zero bytes");
    NEG_ASSERT(level >= 0 && level < levels_, "level out of range");
    const std::size_t idx = slot(q, level);
    const std::int32_t t = tail_[idx];
    // Merge with the tail segment when it is the same flow: flows are
    // pushed whole at arrival, so this only coalesces retransmitted
    // remainders.
    if (t >= 0 && arena_[static_cast<std::size_t>(t)].flow == flow &&
        arena_[static_cast<std::size_t>(t)].enqueued_at == now) {
      arena_[static_cast<std::size_t>(t)].remaining += bytes;
    } else {
      const std::int32_t s = alloc(flow, bytes, now);
      if (t < 0) {
        head_[idx] = s;
        hol_[idx] = now;
        level_mask_[static_cast<std::size_t>(q)] |=
            1u << static_cast<unsigned>(level);
      } else {
        arena_[static_cast<std::size_t>(t)].next = s;
      }
      tail_[idx] = s;
    }
    level_bytes_[idx] += bytes;
    queue_bytes_[static_cast<std::size_t>(q)] += bytes;
  }

  /// Puts bytes back at the head of their level (lost transmission).
  void requeue_front(int q, const QueuedPacket& packet) {
    NEG_ASSERT(packet.bytes > 0, "cannot requeue zero bytes");
    NEG_ASSERT(packet.level >= 0 && packet.level < levels_,
               "level out of range");
    const std::size_t idx = slot(q, packet.level);
    const std::int32_t h = head_[idx];
    if (h >= 0 && arena_[static_cast<std::size_t>(h)].flow == packet.flow) {
      // Merge into the current head; its enqueue stamp (and thus the HoL
      // timestamp) stays the head's own, matching the deque model.
      arena_[static_cast<std::size_t>(h)].remaining += packet.bytes;
    } else {
      const std::int32_t s = alloc(packet.flow, packet.bytes,
                                   packet.enqueued_at);
      arena_[static_cast<std::size_t>(s)].next = h;
      head_[idx] = s;
      if (h < 0) {
        tail_[idx] = s;
        level_mask_[static_cast<std::size_t>(q)] |=
            1u << static_cast<unsigned>(packet.level);
      }
      hol_[idx] = packet.enqueued_at;
    }
    level_bytes_[idx] += packet.bytes;
    queue_bytes_[static_cast<std::size_t>(q)] += packet.bytes;
  }

  /// Draws at most `max_payload` bytes of a single flow from the
  /// highest-priority non-empty level. Empty queue -> nullopt.
  /// Inline: the fabric calls this once per transmitted packet.
  std::optional<QueuedPacket> dequeue_packet(int q, Bytes max_payload) {
    return dequeue_packet_at_least(q, max_payload, 0);
  }

  /// Same, but only from levels >= `min_level` (selective relay pulls only
  /// the lowest-priority elephant data, A.2.2). The non-empty-level
  /// bitmask jumps straight to the first eligible level — no scan over
  /// empty levels.
  std::optional<QueuedPacket> dequeue_packet_at_least(int q,
                                                      Bytes max_payload,
                                                      int min_level) {
    NEG_ASSERT(max_payload > 0, "packet payload must be positive");
    const std::uint32_t eligible =
        level_mask_[static_cast<std::size_t>(q)] >>
        static_cast<unsigned>(min_level);
    if (eligible == 0) return std::nullopt;
    QueuedPacket out;
    take_head(q, min_level + std::countr_zero(eligible), max_payload, out);
    return out;
  }

  /// Draws up to `max_packets` packets from the head segment of the
  /// highest-priority non-empty level, never crossing into the next
  /// segment: exactly the packets that many dequeue_packet calls would
  /// draw while they stay on that segment. Every packet of the run is
  /// `max_payload` bytes except possibly the last. Empty queue -> a run of
  /// 0 packets.
  PacketRun take_run(int q, Bytes max_payload, std::uint32_t max_packets) {
    NEG_ASSERT(max_payload > 0, "packet payload must be positive");
    NEG_ASSERT(max_packets > 0, "a run draws at least one packet");
    const std::uint32_t mask = level_mask_[static_cast<std::size_t>(q)];
    if (mask == 0) return PacketRun{};
    const int level = std::countr_zero(mask);
    const std::size_t idx = slot(q, level);
    const Segment& seg = arena_[static_cast<std::size_t>(head_[idx])];
    const Bytes partial = seg.remaining % max_payload;
    const Bytes seg_packets = seg.remaining / max_payload + (partial > 0);
    PacketRun run{seg.flow, 0, 0, max_payload};
    if (static_cast<Bytes>(max_packets) < seg_packets) {
      run.packets = max_packets;
      run.bytes = static_cast<Bytes>(max_packets) * max_payload;
    } else {
      run.packets = static_cast<std::uint32_t>(seg_packets);
      run.bytes = seg.remaining;
      if (partial > 0) run.last_bytes = partial;
    }
    drain_head(q, level, idx, run.bytes);
    return run;
  }

  bool empty(int q) const {
    return queue_bytes_[static_cast<std::size_t>(q)] == 0;
  }
  Bytes total_bytes(int q) const {
    return queue_bytes_[static_cast<std::size_t>(q)];
  }
  Bytes bytes_at_level(int q, int level) const {
    NEG_ASSERT(level >= 0 && level < levels_, "level out of range");
    return level_bytes_[slot(q, level)];
  }
  int levels() const { return levels_; }
  int num_queues() const { return num_queues_; }

  /// Enqueue time of the head segment of (q, level); kNeverNs when empty.
  /// A flat array read — maintained on every head change.
  Nanos hol_enqueue_time(int q, int level) const {
    NEG_ASSERT(level >= 0 && level < levels_, "level out of range");
    return hol_[slot(q, level)];
  }

  /// Weighted head-of-line waiting delay (A.2.3): HoL = (1 - alpha) *
  /// (HoL_q0 + HoL_q1) / 2 + alpha * HoL_q2, empty levels contributing 0.
  Nanos weighted_hol_delay(int q, Nanos now, double alpha) const;

  /// Oldest head-of-line enqueue time across all levels of `q`; kNeverNs
  /// when the queue is empty.
  Nanos oldest_hol_enqueue(int q) const {
    const std::size_t base = slot(q, 0);
    Nanos oldest = kNeverNs;
    for (int level = 0; level < levels_; ++level) {
      oldest = std::min(oldest, hol_[base + static_cast<std::size_t>(level)]);
    }
    return oldest;
  }

 private:
  struct Segment {
    FlowId flow;
    Bytes remaining;
    Nanos enqueued_at;
    std::int32_t next;  // arena index of the next segment; -1 at the tail
  };

  std::size_t slot(int q, int level) const {
    NEG_ASSERT(q >= 0 && q < num_queues_, "queue index out of range");
    return static_cast<std::size_t>(q) * static_cast<std::size_t>(levels_) +
           static_cast<std::size_t>(level);
  }

  std::int32_t alloc(FlowId flow, Bytes bytes, Nanos enqueued_at) {
    if (free_head_ >= 0) {
      const std::int32_t s = free_head_;
      Segment& seg = arena_[static_cast<std::size_t>(s)];
      free_head_ = seg.next;
      seg = Segment{flow, bytes, enqueued_at, -1};
      return s;
    }
    arena_.push_back(Segment{flow, bytes, enqueued_at, -1});
    return static_cast<std::int32_t>(arena_.size()) - 1;
  }

  /// Partial-takes one packet from the head segment of (q, level). The
  /// level must be non-empty.
  void take_head(int q, int level, Bytes max_payload, QueuedPacket& out) {
    const std::size_t idx = slot(q, level);
    const Segment& seg = arena_[static_cast<std::size_t>(head_[idx])];
    const Bytes take = std::min(seg.remaining, max_payload);
    out = QueuedPacket{seg.flow, take, level, seg.enqueued_at};
    drain_head(q, level, idx, take);
  }

  /// Removes `bytes` from the head segment of (q, level), whose flat index
  /// is `idx`: the shared body of every dequeue path. A drained head is
  /// unlinked and its arena slot recycled, keeping the HoL stamp and level
  /// bitmask current.
  void drain_head(int q, int level, std::size_t idx, Bytes bytes) {
    const std::int32_t h = head_[idx];
    Segment& seg = arena_[static_cast<std::size_t>(h)];
    seg.remaining -= bytes;
    level_bytes_[idx] -= bytes;
    queue_bytes_[static_cast<std::size_t>(q)] -= bytes;
    if (seg.remaining != 0) return;
    const std::int32_t nxt = seg.next;
    seg.next = free_head_;
    free_head_ = h;
    head_[idx] = nxt;
    if (nxt < 0) {
      tail_[idx] = -1;
      hol_[idx] = kNeverNs;
      level_mask_[static_cast<std::size_t>(q)] &=
          ~(1u << static_cast<unsigned>(level));
    } else {
      hol_[idx] = arena_[static_cast<std::size_t>(nxt)].enqueued_at;
    }
  }

  int num_queues_;
  int levels_;
  std::vector<Segment> arena_;  // shared by all queues; free list recycles
  std::int32_t free_head_{-1};
  // Flat per-(queue, level) arrays, indexed q * levels + level:
  std::vector<std::int32_t> head_;  // arena index of the FIFO head; -1 empty
  std::vector<std::int32_t> tail_;
  std::vector<Bytes> level_bytes_;
  std::vector<Nanos> hol_;          // head enqueue stamp; kNeverNs empty
  // Flat per-queue arrays:
  std::vector<Bytes> queue_bytes_;
  std::vector<std::uint32_t> level_mask_;  // bit l set <=> level l non-empty
};

}  // namespace negotiator
