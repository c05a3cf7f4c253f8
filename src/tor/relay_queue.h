// Relay queues at an intermediate ToR: data received on behalf of another
// destination, awaiting its second hop. Plain FIFOs — the paper's priority
// mechanism "does not apply to data at intermediate nodes" (§4.1).
//
// Storage mirrors DestQueueSet: one node arena per RelayQueueSet (a flat
// vector recycled through a LIFO free list) threaded into per-destination
// FIFOs by one flat {bytes, head, tail} record per destination. The
// arena's footprint tracks the peak number of live chunks across all
// destinations, not the sum of each destination's historical peak.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/active_set.h"
#include "common/assert.h"
#include "common/types.h"

namespace negotiator {

struct RelayChunk {
  FlowId flow;
  Bytes bytes;
  /// ARQ sequence number (see tor/host_transport.h). 0 with the transport
  /// disabled; seq-carrying chunks never coalesce across distinct seqs,
  /// so each one stays a retransmittable unit through its second hop.
  std::uint32_t seq{0};
};

/// Relay queues for one ToR, indexed by final destination.
class RelayQueueSet {
 public:
  explicit RelayQueueSet(int num_tors);

  /// Inline: the oblivious fabric enqueues one chunk per spread packet —
  /// millions per run. A chunk of the FIFO's tail flow and seq coalesces
  /// into the tail.
  void enqueue(TorId final_dst, FlowId flow, Bytes bytes,
               std::uint32_t seq = 0) {
    NEG_ASSERT(bytes > 0, "cannot relay zero bytes");
    Fifo& q = fifos_[static_cast<std::size_t>(final_dst)];
    Node* const tail =
        q.tail >= 0 ? &nodes_[static_cast<std::size_t>(q.tail)] : nullptr;
    if (tail != nullptr && tail->flow == flow && tail->seq == seq) {
      tail->bytes += bytes;
    } else {
      const std::int32_t s = alloc(flow, bytes, seq);
      if (q.tail < 0) {
        q.head = s;
        active_.insert(final_dst);
      } else {
        nodes_[static_cast<std::size_t>(q.tail)].next = s;
      }
      q.tail = s;
    }
    q.bytes += bytes;
    total_bytes_ += bytes;
  }

  /// At most `max_payload` bytes of one flow bound for `final_dst`.
  /// Inline: called once per second-hop packet.
  std::optional<RelayChunk> dequeue_packet(TorId final_dst,
                                           Bytes max_payload) {
    NEG_ASSERT(max_payload > 0, "packet payload must be positive");
    Fifo& q = fifos_[static_cast<std::size_t>(final_dst)];
    if (q.head < 0) return std::nullopt;
    Node& head = nodes_[static_cast<std::size_t>(q.head)];
    const Bytes take = std::min(head.bytes, max_payload);
    // A seq-carrying chunk is an indivisible ARQ unit: it was sized at
    // most one payload at transmit time and never coalesces across seqs,
    // so the partial-take split below can only hit seq-0 chunks.
    NEG_ASSERT(head.seq == 0 || take == head.bytes,
               "cannot split a seq-carrying relay chunk");
    const RelayChunk out{head.flow, take, head.seq};
    head.bytes -= take;
    q.bytes -= take;
    total_bytes_ -= take;
    if (head.bytes == 0) {
      // Drained chunk: unlink the head and recycle its arena slot.
      const std::int32_t next = head.next;
      head.next = free_head_;
      free_head_ = q.head;
      q.head = next;
      if (next < 0) {
        q.tail = -1;
        active_.erase(final_dst);
      }
    }
    return out;
  }

  Bytes bytes_for(TorId final_dst) const {
    return fifos_[static_cast<std::size_t>(final_dst)].bytes;
  }
  Bytes total_bytes() const { return total_bytes_; }
  bool empty_for(TorId final_dst) const { return bytes_for(final_dst) == 0; }

  /// Final destinations with parked bytes, ascending. Dirty-set invariant:
  /// enqueue() marks on the empty -> non-empty flip, dequeue_packet()
  /// clears on drain.
  const ActiveSet& active_destinations() const { return active_; }

 private:
  /// One arena node: a relay chunk plus its FIFO link (24 B).
  struct Node {
    Bytes bytes;
    FlowId flow;
    std::uint32_t seq;
    std::int32_t next;  // arena index of the next chunk; -1 at the tail
  };
  static_assert(sizeof(Node) == 24);
  /// One destination's FIFO: parked bytes and its arena head/tail.
  struct Fifo {
    Bytes bytes{0};
    std::int32_t head{-1};  // -1 when empty
    std::int32_t tail{-1};
  };

  std::int32_t alloc(FlowId flow, Bytes bytes, std::uint32_t seq) {
    if (free_head_ >= 0) {
      const std::int32_t s = free_head_;
      Node& node = nodes_[static_cast<std::size_t>(s)];
      free_head_ = node.next;
      node = Node{bytes, flow, seq, -1};
      return s;
    }
    nodes_.push_back(Node{bytes, flow, seq, -1});
    return static_cast<std::int32_t>(nodes_.size()) - 1;
  }

  std::vector<Node> nodes_;  // shared by all FIFOs; free list recycles
  std::int32_t free_head_{-1};
  std::vector<Fifo> fifos_;  // indexed by final destination
  ActiveSet active_;
  Bytes total_bytes_{0};
};

}  // namespace negotiator
