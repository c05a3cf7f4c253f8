#include "tor/relay_queue.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace negotiator {
namespace {

TEST(RelayQueue, StartsEmpty) {
  RelayQueueSet r(8);
  EXPECT_EQ(r.total_bytes(), 0);
  EXPECT_TRUE(r.empty_for(3));
  EXPECT_FALSE(r.dequeue_packet(3, 1'000).has_value());
}

TEST(RelayQueue, PerDestinationIsolation) {
  RelayQueueSet r(8);
  r.enqueue(1, 10, 500);
  r.enqueue(2, 11, 700);
  EXPECT_EQ(r.bytes_for(1), 500);
  EXPECT_EQ(r.bytes_for(2), 700);
  EXPECT_EQ(r.total_bytes(), 1'200);
  EXPECT_FALSE(r.dequeue_packet(3, 1'000).has_value());
}

TEST(RelayQueue, FifoOrderNoPrioritization) {
  // §4.1: priority queues do not apply at intermediate nodes.
  RelayQueueSet r(4);
  r.enqueue(0, 100, 1'000);  // elephant chunk arrives first
  r.enqueue(0, 200, 100);    // mouse behind it
  EXPECT_EQ(r.dequeue_packet(0, 2'000)->flow, 100)
      << "FIFO: the mouse must wait behind the elephant chunk";
}

TEST(RelayQueue, PacketBounded) {
  RelayQueueSet r(4);
  r.enqueue(0, 1, 5'000);
  const auto chunk = r.dequeue_packet(0, 1'115);
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->bytes, 1'115);
  EXPECT_EQ(r.bytes_for(0), 3'885);
}

TEST(RelayQueue, SameFlowChunksCoalesce) {
  RelayQueueSet r(4);
  r.enqueue(0, 1, 500);
  r.enqueue(0, 1, 500);
  const auto chunk = r.dequeue_packet(0, 2'000);
  EXPECT_EQ(chunk->bytes, 1'000);
  EXPECT_TRUE(r.empty_for(0));
}

TEST(RelayQueue, DistinctSeqsStayDistinctUnits) {
  // Same flow, different ARQ seqs: each chunk stays a retransmittable
  // unit and comes out whole with its own seq.
  RelayQueueSet r(4);
  r.enqueue(0, 7, 500, 1);
  r.enqueue(0, 7, 400, 2);
  r.enqueue(0, 7, 300);
  const auto first = r.dequeue_packet(0, 2'000);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->bytes, 500);
  EXPECT_EQ(first->seq, 1u);
  const auto second = r.dequeue_packet(0, 2'000);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->bytes, 400);
  EXPECT_EQ(second->seq, 2u);
  EXPECT_EQ(r.dequeue_packet(0, 2'000)->seq, 0u);
  EXPECT_TRUE(r.empty_for(0));
}

TEST(RelayQueue, TotalsConserved) {
  RelayQueueSet r(4);
  Bytes in = 0;
  for (int i = 0; i < 100; ++i) {
    r.enqueue(i % 4, i, 137 + i);
    in += 137 + i;
  }
  Bytes out = 0;
  for (TorId d = 0; d < 4; ++d) {
    while (auto c = r.dequeue_packet(d, 1'000)) out += c->bytes;
  }
  EXPECT_EQ(in, out);
  EXPECT_EQ(r.total_bytes(), 0);
}

// --- Reference model: one std::deque of chunks per destination ---

class RefRelayQueues {
 public:
  explicit RefRelayQueues(int n) : fifos_(static_cast<std::size_t>(n)) {}

  void enqueue(TorId d, FlowId flow, Bytes bytes, std::uint32_t seq) {
    auto& q = fifos_[static_cast<std::size_t>(d)];
    if (!q.empty() && q.back().flow == flow && q.back().seq == seq) {
      q.back().bytes += bytes;
    } else {
      q.push_back(RelayChunk{flow, bytes, seq});
    }
  }

  std::optional<RelayChunk> dequeue_packet(TorId d, Bytes max_payload) {
    auto& q = fifos_[static_cast<std::size_t>(d)];
    if (q.empty()) return std::nullopt;
    RelayChunk& head = q.front();
    const Bytes take = std::min(head.bytes, max_payload);
    const RelayChunk out{head.flow, take, head.seq};
    head.bytes -= take;
    if (head.bytes == 0) q.pop_front();
    return out;
  }

  Bytes bytes_for(TorId d) const {
    Bytes sum = 0;
    for (const RelayChunk& c : fifos_[static_cast<std::size_t>(d)]) {
      sum += c.bytes;
    }
    return sum;
  }

 private:
  std::vector<std::deque<RelayChunk>> fifos_;
};

void expect_same_chunk(const std::optional<RelayChunk>& got,
                       const std::optional<RelayChunk>& want,
                       std::size_t step) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
  if (!got) return;
  EXPECT_EQ(got->flow, want->flow) << "step " << step;
  EXPECT_EQ(got->bytes, want->bytes) << "step " << step;
  EXPECT_EQ(got->seq, want->seq) << "step " << step;
}

TEST(RelayQueueProperty, ArenaMatchesDequeReference) {
  // A seeded mix of single enqueues, enqueue bursts and packet draws over a
  // multi-destination set: nodes freed by one destination's drains are
  // recycled through the shared free list into other destinations'
  // enqueues. Seq-carrying chunks get unique seqs and at most the
  // smallest payload, so (as in the fabric) they never split.
  const int kTors = 6;
  const Bytes kMinPayload = 600;
  RelayQueueSet impl(kTors);
  RefRelayQueues ref(kTors);
  Rng rng(20261017);
  std::uint32_t next_seq = 1;
  struct Chunk {
    TorId final_dst;
    FlowId flow;
    Bytes bytes;
    std::uint32_t seq;
  };
  // Few flows so same-flow chunks meet at FIFO tails and coalesce.
  auto draw_chunk = [&](TorId d) {
    const FlowId flow = static_cast<FlowId>(rng.next_below(4));
    if (rng.next_below(4) == 0) {
      return Chunk{d, flow, 1 + rng.next_below(kMinPayload), next_seq++};
    }
    return Chunk{d, flow, 1 + rng.next_below(3'000), 0};
  };
  Bytes total = 0;
  for (std::size_t step = 0; step < 20'000; ++step) {
    const TorId d = static_cast<TorId>(rng.next_below(kTors));
    // Draws outnumber enqueues so FIFOs keep draining to empty and back.
    switch (rng.next_below(10)) {
      case 0: {  // single enqueue
        const Chunk c = draw_chunk(d);
        impl.enqueue(c.final_dst, c.flow, c.bytes, c.seq);
        ref.enqueue(c.final_dst, c.flow, c.bytes, c.seq);
        total += c.bytes;
        break;
      }
      case 1: {  // a burst, runs of destinations interleaved
        const int n = 1 + static_cast<int>(rng.next_below(12));
        for (int i = 0; i < n; ++i) {
          const Chunk c = draw_chunk(static_cast<TorId>(
              rng.next_below(2) == 0 ? d : rng.next_below(kTors)));
          impl.enqueue(c.final_dst, c.flow, c.bytes, c.seq);
          ref.enqueue(c.final_dst, c.flow, c.bytes, c.seq);
          total += c.bytes;
        }
        break;
      }
      default: {  // packet draw, partial takes included
        const Bytes payload = kMinPayload + rng.next_below(1'400);
        const auto got = impl.dequeue_packet(d, payload);
        expect_same_chunk(got, ref.dequeue_packet(d, payload), step);
        if (got) total -= got->bytes;
        break;
      }
    }
    ASSERT_EQ(impl.total_bytes(), total) << "step " << step;
    std::vector<TorId> want_active;
    for (TorId t = 0; t < kTors; ++t) {
      ASSERT_EQ(impl.bytes_for(t), ref.bytes_for(t)) << "step " << step;
      ASSERT_EQ(impl.empty_for(t), ref.bytes_for(t) == 0) << "step " << step;
      if (ref.bytes_for(t) > 0) want_active.push_back(t);
    }
    const std::vector<TorId> active(impl.active_destinations().begin(),
                                    impl.active_destinations().end());
    ASSERT_EQ(active, want_active) << "step " << step;
  }
}

TEST(RelayQueue, FootprintTracksLiveChunksNotPerDestinationPeaks) {
  // Fill and drain each destination in turn at N = 128. Every drained
  // node is reused by the next destination, so the set's heap footprint
  // stays near one burst instead of one burst per destination.
  constexpr int kTors = 128;
  constexpr int kBurst = 1'000;
  auto allocated = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  const std::size_t before = allocated();
  std::size_t grown = 0;
  {
    RelayQueueSet r(kTors);
    for (TorId d = 0; d < kTors; ++d) {
      // Distinct flows: no coalescing, one node per chunk.
      for (FlowId f = 0; f < kBurst; ++f) r.enqueue(d, f, 100);
      while (r.dequeue_packet(d, 1'000)) {
      }
      ASSERT_TRUE(r.empty_for(d));
    }
    grown = allocated() - before;
  }
  if (grown == 0) GTEST_SKIP() << "allocator does not report to mallinfo2";
  EXPECT_LE(grown, 2 * kBurst * sizeof(RelayChunk));
}

}  // namespace
}  // namespace negotiator
