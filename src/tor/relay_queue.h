// Relay queues at an intermediate ToR: data received on behalf of another
// destination, awaiting its second hop. Plain FIFOs — the paper's priority
// mechanism "does not apply to data at intermediate nodes" (§4.1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/active_set.h"
#include "common/assert.h"
#include "common/types.h"

namespace negotiator {

struct RelayChunk {
  FlowId flow;
  Bytes bytes;
  Nanos received_at;
  /// ARQ sequence number (see tor/host_transport.h). 0 with the transport
  /// disabled; seq-carrying chunks never coalesce across distinct seqs,
  /// so each one stays a retransmittable unit through its second hop.
  std::uint32_t seq{0};
};

/// A flat ring-buffer FIFO of relay chunks. The oblivious fabric pushes and
/// pops millions of chunks per run across N^2 queues; a std::deque pays a
/// block allocation every few entries and scatters them across the heap,
/// while this ring reuses one contiguous buffer (power-of-two capacity,
/// grown on demand and kept).
class ChunkFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  RelayChunk& front() { return buf_[head_]; }
  const RelayChunk& front() const { return buf_[head_]; }
  RelayChunk& back() { return buf_[wrap(head_ + size_ - 1)]; }

  void push_back(const RelayChunk& c) {
    if (size_ == buf_.size()) grow(size_ + 1);
    buf_[wrap(head_ + size_)] = c;
    ++size_;
  }
  void pop_front() {
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Appends `n` chunks in order with a single capacity check — the bulk
  /// ingest path for chunk trains (one growth decision per span instead of
  /// one per chunk).
  void push_span(const RelayChunk* chunks, std::size_t n) {
    if (n == 0) return;
    if (size_ + n > buf_.size()) grow(size_ + n);
    std::size_t w = wrap(head_ + size_);
    for (std::size_t i = 0; i < n; ++i) {
      buf_[w] = chunks[i];
      w = wrap(w + 1);
    }
    size_ += n;
  }

  /// Pops up to `max_n` chunks from the front into `out` (preserving FIFO
  /// order); returns the number popped.
  std::size_t pop_span(RelayChunk* out, std::size_t max_n) {
    const std::size_t n = std::min(max_n, size_);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = buf_[head_];
      head_ = wrap(head_ + 1);
    }
    size_ -= n;
    return n;
  }

 private:
  std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }
  /// Doubles capacity (power of two) until it holds `min_capacity`,
  /// un-wrapping live chunks into the new buffer.
  void grow(std::size_t min_capacity) {
    std::size_t cap = buf_.empty() ? 8 : buf_.size();
    while (cap < min_capacity) cap *= 2;
    std::vector<RelayChunk> bigger(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = buf_[wrap(head_ + i)];
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<RelayChunk> buf_;
  std::size_t head_{0};
  std::size_t size_{0};
};

/// Relay queues for one ToR, indexed by final destination.
class RelayQueueSet {
 public:
  explicit RelayQueueSet(int num_tors);

  /// Inline: the oblivious fabric enqueues one chunk per spread packet —
  /// millions per run.
  void enqueue(TorId final_dst, FlowId flow, Bytes bytes, Nanos now,
               std::uint32_t seq = 0) {
    NEG_ASSERT(bytes > 0, "cannot relay zero bytes");
    auto& q = queues_[static_cast<std::size_t>(final_dst)];
    if (q.empty()) active_.insert(final_dst);
    if (!q.empty() && q.back().flow == flow && q.back().seq == seq) {
      q.back().bytes += bytes;
    } else {
      q.push_back(RelayChunk{flow, bytes, now, seq});
    }
    queue_bytes_[static_cast<std::size_t>(final_dst)] += bytes;
    total_bytes_ += bytes;
  }

  /// Bulk ingest of one chunk train: enqueues `n` chunks (each bound for
  /// its own final destination) exactly as n sequential enqueue() calls
  /// would — same FIFO contents, same-flow coalescing included — but with
  /// one occupancy/byte-counter delta per destination run and one ChunkFifo
  /// capacity check per run instead of per chunk. All chunks share the
  /// train's arrival time `now`.
  void enqueue_span(const RelayTrainChunk* chunks, std::size_t n, Nanos now) {
    Bytes train_total = 0;
    std::size_t i = 0;
    while (i < n) {
      const TorId d = chunks[i].final_dst;
      auto& q = queues_[static_cast<std::size_t>(d)];
      if (q.empty()) active_.insert(d);
      // Collapse the run's chunks the way per-chunk enqueue would:
      // consecutive same-flow chunks merge, and the run's first chunk(s)
      // may merge into the FIFO's current tail.
      span_scratch_.clear();
      Bytes run_bytes = 0;
      for (; i < n && chunks[i].final_dst == d; ++i) {
        NEG_ASSERT(chunks[i].bytes > 0, "cannot relay zero bytes");
        run_bytes += chunks[i].bytes;
        if (!span_scratch_.empty() &&
            span_scratch_.back().flow == chunks[i].flow &&
            span_scratch_.back().seq == chunks[i].seq) {
          span_scratch_.back().bytes += chunks[i].bytes;
        } else if (span_scratch_.empty() && !q.empty() &&
                   q.back().flow == chunks[i].flow &&
                   q.back().seq == chunks[i].seq) {
          q.back().bytes += chunks[i].bytes;
        } else {
          span_scratch_.push_back(
              RelayChunk{chunks[i].flow, chunks[i].bytes, now,
                         chunks[i].seq});
        }
      }
      q.push_span(span_scratch_.data(), span_scratch_.size());
      queue_bytes_[static_cast<std::size_t>(d)] += run_bytes;
      train_total += run_bytes;
    }
    total_bytes_ += train_total;
  }

  /// At most `max_payload` bytes of one flow bound for `final_dst`.
  /// Inline: called once per second-hop packet.
  std::optional<RelayChunk> dequeue_packet(TorId final_dst,
                                           Bytes max_payload) {
    RelayChunk out;
    if (dequeue_span(final_dst, max_payload, 1, &out) == 0) {
      return std::nullopt;
    }
    return out;
  }

  /// Draws up to `max_packets` packets (each at most `max_payload` bytes of
  /// one flow) bound for `final_dst`, exactly as that many sequential
  /// dequeue_packet calls would — same packets, same partial takes — with
  /// one per-destination byte delta, one total update and one active-set
  /// check for the whole span. Returns the number drawn. The drain-side
  /// mirror of enqueue_span.
  std::size_t dequeue_span(TorId final_dst, Bytes max_payload,
                           std::size_t max_packets, RelayChunk* out) {
    NEG_ASSERT(max_payload > 0, "packet payload must be positive");
    auto& q = queues_[static_cast<std::size_t>(final_dst)];
    Bytes taken = 0;
    std::size_t n = 0;
    while (n < max_packets && !q.empty()) {
      RelayChunk& head = q.front();
      const Bytes take = std::min(head.bytes, max_payload);
      // A seq-carrying chunk is an indivisible ARQ unit: it was sized at
      // most one payload at transmit time and never coalesces across
      // seqs, so the partial-take split below can only hit seq-0 chunks.
      NEG_ASSERT(head.seq == 0 || take == head.bytes,
                 "cannot split a seq-carrying relay chunk");
      out[n++] = RelayChunk{head.flow, take, head.received_at, head.seq};
      head.bytes -= take;
      taken += take;
      if (head.bytes == 0) q.pop_front();
    }
    if (n == 0) return 0;
    queue_bytes_[static_cast<std::size_t>(final_dst)] -= taken;
    total_bytes_ -= taken;
    if (q.empty()) active_.erase(final_dst);
    return n;
  }

  Bytes bytes_for(TorId final_dst) const {
    return queue_bytes_[static_cast<std::size_t>(final_dst)];
  }
  Bytes total_bytes() const { return total_bytes_; }
  bool empty_for(TorId final_dst) const { return bytes_for(final_dst) == 0; }

  /// Final destinations with parked bytes, ascending. Dirty-set invariant:
  /// enqueue() marks on the empty -> non-empty flip, dequeue_packet()
  /// clears on drain; mutations are O(active) only on flips.
  const ActiveSet& active_destinations() const { return active_; }

 private:
  std::vector<ChunkFifo> queues_;
  std::vector<Bytes> queue_bytes_;
  ActiveSet active_;
  Bytes total_bytes_{0};
  std::vector<RelayChunk> span_scratch_;  // per-run staging for enqueue_span
};

}  // namespace negotiator
