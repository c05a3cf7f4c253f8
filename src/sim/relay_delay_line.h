// The relay delay line: first-hop relay chunks in flight to their
// intermediate ToR, on both fabrics (the baseline's VLB detour and
// NegotiaToR's selective relay, §3.5).
//
// Every chunk a slot sends lands at the same time, the slot's end plus the
// propagation delay, and slots close in time order. So the chunks in flight
// form a FIFO of per-slot spans with non-decreasing landing times, and need
// no priority queue: a slot walk appends each chunk as it sends it and
// closes the slot's span at the landing time; land_until(t) hands over every
// span due by `t`, oldest first (FabricSim::advance_to).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace negotiator {

class RelayDelayLine {
 public:
  /// One relay chunk bound for `intermediate`, which parks it for
  /// `final_dst`.
  struct Chunk {
    TorId intermediate;
    TorId final_dst;
    FlowId flow;
    Bytes bytes;
    /// ARQ sequence number (see tor/host_transport.h); 0 when the host
    /// transport is disabled.
    std::uint32_t seq{0};
  };

  /// Adds a chunk to the open span.
  void append(const Chunk& c) { chunks_.push_back(c); }

  /// Closes the open span: its chunks land at `when`. A no-op when nothing
  /// was appended since the last close. Spans close in landing order.
  void close_span(Nanos when) {
    const std::size_t count = chunks_.size() - open_;
    if (count == 0) return;
    NEG_ASSERT(when >= tail_when_, "relay span lands before the one ahead");
    spans_.push_back(Span{when, count});
    open_ = chunks_.size();
    tail_when_ = when;
  }

  /// Calls `land(chunk)` for each chunk of every closed span due by `t`
  /// (inclusive), span by span in close order and in append order within
  /// a span. `land` must not append.
  template <typename Land>
  void land_until(Nanos t, Land&& land) {
    while (span_head_ < spans_.size() && spans_[span_head_].when <= t) {
      const std::size_t end = head_ + spans_[span_head_].count;
      for (; head_ < end; ++head_) land(chunks_[head_]);
      landed_chunks_ += spans_[span_head_].count;
      ++landed_spans_;
      ++span_head_;
    }
    // Drop the landed prefix once it is at least half the storage: each
    // chunk is moved O(1) times on average and the storage stays near
    // twice the chunks in flight.
    if (2 * head_ >= chunks_.size() && head_ > 0) {
      chunks_.erase(chunks_.begin(), chunks_.begin() +
                                         static_cast<std::ptrdiff_t>(head_));
      open_ -= head_;
      head_ = 0;
      spans_.erase(spans_.begin(), spans_.begin() +
                                       static_cast<std::ptrdiff_t>(span_head_));
      span_head_ = 0;
    }
  }

  /// Chunks landed so far.
  std::uint64_t landed_chunks() const { return landed_chunks_; }
  /// Non-empty spans landed so far (at most one per slot).
  std::uint64_t landed_spans() const { return landed_spans_; }

 private:
  struct Span {
    Nanos when;
    std::size_t count;
  };

  std::vector<Chunk> chunks_;  // [head_, open_) closed, [open_, end) open
  std::size_t head_{0};
  std::size_t open_{0};
  std::vector<Span> spans_;  // [span_head_, end) pending
  std::size_t span_head_{0};
  Nanos tail_when_{0};
  std::uint64_t landed_chunks_{0};
  std::uint64_t landed_spans_{0};
};

}  // namespace negotiator
