#include "tor/dest_queue.h"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace negotiator {
namespace {

PiasConfig pias3() { return PiasConfig{}; }

TEST(DestQueue, StartsEmpty) {
  DestQueueSet q(1, 3);
  EXPECT_TRUE(q.empty(0));
  EXPECT_EQ(q.total_bytes(0), 0);
  EXPECT_FALSE(q.dequeue_packet(0, 1'000).has_value());
}

TEST(DestQueue, EnqueueFlowSplitsAcrossLevels) {
  DestQueueSet q(1, 3);
  q.enqueue_flow(0, 7, 50'000, 100, pias3());
  EXPECT_EQ(q.total_bytes(0), 50'000);
  EXPECT_EQ(q.bytes_at_level(0, 0), 1'000);
  EXPECT_EQ(q.bytes_at_level(0, 1), 9'000);
  EXPECT_EQ(q.bytes_at_level(0, 2), 40'000);
}

TEST(DestQueue, DequeueHighestPriorityFirst) {
  DestQueueSet q(1, 3);
  q.enqueue_bytes(0, 1, 500, 0, 2);   // elephant data first in time
  q.enqueue_bytes(0, 2, 300, 10, 0);  // mice data later
  const auto pkt = q.dequeue_packet(0, 1'000);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->flow, 2) << "level 0 must be served before level 2";
  EXPECT_EQ(pkt->bytes, 300);
  EXPECT_EQ(pkt->level, 0);
}

TEST(DestQueue, PacketRespectsMaxPayload) {
  DestQueueSet q(1, 1);
  q.enqueue_bytes(0, 3, 5'000, 0, 0);
  const auto pkt = q.dequeue_packet(0, 1'115);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->bytes, 1'115);
  EXPECT_EQ(q.total_bytes(0), 3'885);
}

TEST(DestQueue, PacketNeverMixesFlows) {
  DestQueueSet q(1, 1);
  q.enqueue_bytes(0, 1, 100, 0, 0);
  q.enqueue_bytes(0, 2, 100, 1, 0);
  const auto pkt = q.dequeue_packet(0, 1'000);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->flow, 1);
  EXPECT_EQ(pkt->bytes, 100) << "only the head flow's bytes in one packet";
}

TEST(DestQueue, FifoWithinLevel) {
  DestQueueSet q(1, 1);
  q.enqueue_bytes(0, 1, 100, 0, 0);
  q.enqueue_bytes(0, 2, 100, 1, 0);
  q.enqueue_bytes(0, 3, 100, 2, 0);
  EXPECT_EQ(q.dequeue_packet(0, 1'000)->flow, 1);
  EXPECT_EQ(q.dequeue_packet(0, 1'000)->flow, 2);
  EXPECT_EQ(q.dequeue_packet(0, 1'000)->flow, 3);
}

TEST(DestQueue, RequeueFrontRestoresHead) {
  DestQueueSet q(1, 1);
  q.enqueue_bytes(0, 1, 1'000, 0, 0);
  auto pkt = q.dequeue_packet(0, 400);
  ASSERT_TRUE(pkt.has_value());
  q.requeue_front(0, *pkt);
  EXPECT_EQ(q.total_bytes(0), 1'000);
  const auto again = q.dequeue_packet(0, 1'000);
  EXPECT_EQ(again->flow, 1);
  EXPECT_EQ(again->bytes, 1'000) << "requeued bytes merge with the head";
}

TEST(DestQueue, DequeueAtLeastSkipsHighLevels) {
  DestQueueSet q(1, 3);
  q.enqueue_flow(0, 9, 50'000, 0, pias3());
  const auto pkt = q.dequeue_packet_at_least(0, 1'000, 2);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->level, 2);
  EXPECT_EQ(q.bytes_at_level(0, 0), 1'000) << "mice data untouched";
}

TEST(DestQueue, HolEnqueueTimeTracksHead) {
  DestQueueSet q(1, 3);
  EXPECT_EQ(q.hol_enqueue_time(0, 0), kNeverNs);
  q.enqueue_bytes(0, 1, 100, 42, 0);
  q.enqueue_bytes(0, 2, 100, 50, 0);
  EXPECT_EQ(q.hol_enqueue_time(0, 0), 42);
  (void)q.dequeue_packet(0, 100);
  EXPECT_EQ(q.hol_enqueue_time(0, 0), 50);
}

TEST(DestQueue, WeightedHolDelayFormula) {
  // HoL = (1-a)(q0+q1)/2 + a*q2 (A.2.3).
  DestQueueSet q(1, 3);
  q.enqueue_bytes(0, 1, 100, 0, 0);   // waited 100 at now=100
  q.enqueue_bytes(0, 2, 100, 60, 1);  // waited 40
  q.enqueue_bytes(0, 3, 100, 20, 2);  // waited 80
  const double a = 0.001;
  const double expect = (1 - a) * (100 + 40) / 2.0 + a * 80;
  EXPECT_NEAR(static_cast<double>(q.weighted_hol_delay(0, 100, a)), expect,
              1.0);
}

TEST(DestQueue, WeightedHolDelayEmptyLevelsCountZero) {
  DestQueueSet q(1, 3);
  q.enqueue_bytes(0, 1, 100, 0, 2);
  const double a = 0.5;
  EXPECT_NEAR(static_cast<double>(q.weighted_hol_delay(0, 200, a)), a * 200,
              1.0);
}

// --- Arena-vs-deque property check ---------------------------------------
//
// The SoA DestQueueSet must be observationally equivalent to the plain
// per-level std::deque<Segment> model it replaced. The reference below IS
// that old model (tail merge on same flow + same stamp, head merge on
// requeue keeping the head's stamp, partial takes from the head only);
// randomized op sequences pin the two bit-for-bit.

struct RefSeg {
  FlowId flow;
  Bytes remaining;
  Nanos enqueued_at;
};

class RefDestQueue {
 public:
  explicit RefDestQueue(int levels) : q_(static_cast<std::size_t>(levels)) {}

  void enqueue_bytes(FlowId flow, Bytes bytes, Nanos now, int level) {
    auto& q = q_[static_cast<std::size_t>(level)];
    if (!q.empty() && q.back().flow == flow && q.back().enqueued_at == now) {
      q.back().remaining += bytes;
    } else {
      q.push_back(RefSeg{flow, bytes, now});
    }
  }

  void enqueue_flow(FlowId flow, Bytes size, Nanos now,
                    const PiasConfig& pias) {
    for (const PiasSegment& seg : pias_split(size, pias)) {
      enqueue_bytes(flow, seg.bytes, now, pias.enabled ? seg.level : 0);
    }
  }

  void requeue_front(const QueuedPacket& p) {
    auto& q = q_[static_cast<std::size_t>(p.level)];
    if (!q.empty() && q.front().flow == p.flow) {
      q.front().remaining += p.bytes;  // HoL stamp stays the head's own
    } else {
      q.push_front(RefSeg{p.flow, p.bytes, p.enqueued_at});
    }
  }

  std::optional<int> first_nonempty_level() const {
    for (int level = 0; level < static_cast<int>(q_.size()); ++level) {
      if (!q_[static_cast<std::size_t>(level)].empty()) return level;
    }
    return std::nullopt;
  }

  std::optional<QueuedPacket> dequeue_packet_at_least(Bytes max_payload,
                                                      int min_level) {
    for (int level = min_level; level < static_cast<int>(q_.size());
         ++level) {
      auto& q = q_[static_cast<std::size_t>(level)];
      if (q.empty()) continue;
      RefSeg& head = q.front();
      const Bytes take = std::min(head.remaining, max_payload);
      const QueuedPacket out{head.flow, take, level, head.enqueued_at};
      head.remaining -= take;
      if (head.remaining == 0) q.pop_front();
      return out;
    }
    return std::nullopt;
  }

  /// Sequential dequeue_packet calls that stay on the head segment they
  /// start on: the reference for DestQueueSet::take_run.
  std::vector<QueuedPacket> dequeue_segment(Bytes max_payload,
                                            std::size_t max_packets) {
    std::vector<QueuedPacket> out;
    while (out.size() < max_packets) {
      const auto level = first_nonempty_level();
      if (!level) break;
      const bool segment_ends =
          q_[static_cast<std::size_t>(*level)].front().remaining <=
          max_payload;
      out.push_back(*dequeue_packet_at_least(max_payload, 0));
      if (segment_ends) break;
    }
    return out;
  }

  Bytes bytes_at_level(int level) const {
    Bytes total = 0;
    for (const RefSeg& s : q_[static_cast<std::size_t>(level)]) {
      total += s.remaining;
    }
    return total;
  }
  Bytes total_bytes() const {
    Bytes total = 0;
    for (int l = 0; l < static_cast<int>(q_.size()); ++l) {
      total += bytes_at_level(l);
    }
    return total;
  }
  Nanos hol_enqueue_time(int level) const {
    const auto& q = q_[static_cast<std::size_t>(level)];
    return q.empty() ? kNeverNs : q.front().enqueued_at;
  }

 private:
  std::vector<std::deque<RefSeg>> q_;
};

void expect_same_packet(const std::optional<QueuedPacket>& got,
                        const std::optional<QueuedPacket>& want,
                        std::size_t step) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
  if (!got.has_value()) return;
  EXPECT_EQ(got->flow, want->flow) << "step " << step;
  EXPECT_EQ(got->bytes, want->bytes) << "step " << step;
  EXPECT_EQ(got->level, want->level) << "step " << step;
  EXPECT_EQ(got->enqueued_at, want->enqueued_at) << "step " << step;
}

/// A run must carry exactly the reference packets: one flow, every packet
/// full but the last, byte totals equal.
void expect_run_matches(const PacketRun& run,
                        const std::vector<QueuedPacket>& want, Bytes payload,
                        std::size_t step) {
  ASSERT_EQ(run.packets, want.size()) << "step " << step;
  Bytes total = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].flow, run.flow) << "step " << step;
    EXPECT_EQ(want[i].bytes, i + 1 < want.size() ? payload : run.last_bytes)
        << "step " << step << " packet " << i;
    total += want[i].bytes;
  }
  EXPECT_EQ(run.bytes, total) << "step " << step;
}

void expect_same_state(const DestQueueSet& impl,
                       const std::vector<RefDestQueue>& ref, int levels,
                       std::size_t step) {
  for (int q = 0; q < impl.num_queues(); ++q) {
    const RefDestQueue& r = ref[static_cast<std::size_t>(q)];
    ASSERT_EQ(impl.empty(q), r.total_bytes() == 0)
        << "step " << step << " queue " << q;
    ASSERT_EQ(impl.total_bytes(q), r.total_bytes())
        << "step " << step << " queue " << q;
    for (int l = 0; l < levels; ++l) {
      ASSERT_EQ(impl.bytes_at_level(q, l), r.bytes_at_level(l))
          << "step " << step << " queue " << q << " level " << l;
      ASSERT_EQ(impl.hol_enqueue_time(q, l), r.hol_enqueue_time(l))
          << "step " << step << " queue " << q << " level " << l;
    }
  }
}

TEST(DestQueueProperty, ArenaMatchesDequeReference) {
  // Every step works on a randomly picked queue of a multi-queue set, so
  // segments freed by one queue's dequeues are recycled through the shared
  // free list into other queues' enqueues. Each queue is checked against
  // its own reference.
  const int queues = 5;
  const int levels = 3;
  const PiasConfig pias = pias3();
  DestQueueSet impl(queues, levels);
  std::vector<RefDestQueue> refs(static_cast<std::size_t>(queues),
                                 RefDestQueue(levels));
  Rng rng(20260808);
  Nanos now = 0;
  // Candidates for requeue_front, each with the queue it came from.
  std::vector<std::pair<int, QueuedPacket>> dequeued;
  for (std::size_t step = 0; step < 20'000; ++step) {
    now += rng.next_below(50);
    const int q = static_cast<int>(rng.next_below(queues));
    RefDestQueue& ref = refs[static_cast<std::size_t>(q)];
    switch (rng.next_below(10)) {
      case 0:
      case 1: {  // whole flow, PIAS-split across levels
        const FlowId flow = static_cast<FlowId>(rng.next_below(64));
        const Bytes size = 1 + rng.next_below(60'000);
        impl.enqueue_flow(q, flow, size, now, pias);
        ref.enqueue_flow(flow, size, now, pias);
        break;
      }
      case 2: {  // raw bytes at an explicit level (relay / retransmit)
        const FlowId flow = static_cast<FlowId>(rng.next_below(64));
        const Bytes bytes = 1 + rng.next_below(5'000);
        const int level = static_cast<int>(rng.next_below(levels));
        impl.enqueue_bytes(q, flow, bytes, now, level);
        ref.enqueue_bytes(flow, bytes, now, level);
        break;
      }
      case 3: {  // lost transmission: put a past packet back at its head
        if (dequeued.empty()) break;
        const std::size_t pick = static_cast<std::size_t>(
            rng.next_below(static_cast<std::int64_t>(dequeued.size())));
        const auto [from, p] = dequeued[pick];
        dequeued.erase(dequeued.begin() + static_cast<std::ptrdiff_t>(pick));
        impl.requeue_front(from, p);
        refs[static_cast<std::size_t>(from)].requeue_front(p);
        break;
      }
      case 4: {  // selective-relay pull: only levels >= min_level
        const Bytes payload = 1 + rng.next_below(2'000);
        const int min_level = static_cast<int>(rng.next_below(levels));
        const auto got = impl.dequeue_packet_at_least(q, payload, min_level);
        const auto want = ref.dequeue_packet_at_least(payload, min_level);
        expect_same_packet(got, want, step);
        if (got) dequeued.emplace_back(q, *got);
        break;
      }
      case 5: {  // a run vs sequential ref dequeues on one segment
        const Bytes payload = 1 + rng.next_below(2'000);
        const auto max_packets =
            static_cast<std::uint32_t>(1 + rng.next_below(8));
        const PacketRun run = impl.take_run(q, payload, max_packets);
        const std::vector<QueuedPacket> want =
            ref.dequeue_segment(payload, max_packets);
        expect_run_matches(run, want, payload, step);
        for (const QueuedPacket& p : want) dequeued.emplace_back(q, p);
        break;
      }
      default: {  // plain dequeue (most common op in the fabric)
        const Bytes payload = 1 + rng.next_below(2'000);
        const auto got = impl.dequeue_packet(q, payload);
        const auto want = ref.dequeue_packet_at_least(payload, 0);
        expect_same_packet(got, want, step);
        if (got) dequeued.emplace_back(q, *got);
        break;
      }
    }
    if (dequeued.size() > 32) dequeued.erase(dequeued.begin());
    expect_same_state(impl, refs, levels, step);
  }
}

TEST(DestQueueSet, TakeRunStaysOnOneSegment) {
  // A run drains the head segment of the highest-priority level and stops
  // there: at the segment's end (short or full last packet), or at
  // max_packets in mid-segment.
  DestQueueSet set(1, 3);
  set.enqueue_bytes(0, 1, 3'000, 5, 2);
  set.enqueue_bytes(0, 2, 2'500, 7, 0);
  set.enqueue_bytes(0, 3, 1'000, 9, 0);

  PacketRun run = set.take_run(0, 1'000, 8);  // short last packet
  EXPECT_EQ(run.flow, 2);
  EXPECT_EQ(run.packets, 3u);
  EXPECT_EQ(run.bytes, 2'500);
  EXPECT_EQ(run.last_bytes, 500);
  EXPECT_EQ(set.hol_enqueue_time(0, 0), 9) << "next segment is the head";

  run = set.take_run(0, 1'000, 8);  // segment of exactly one full packet
  EXPECT_EQ(run.flow, 3);
  EXPECT_EQ(run.packets, 1u);
  EXPECT_EQ(run.last_bytes, 1'000);
  EXPECT_EQ(set.hol_enqueue_time(0, 0), kNeverNs);

  run = set.take_run(0, 1'000, 2);  // cut in mid-segment, one level down
  EXPECT_EQ(run.flow, 1);
  EXPECT_EQ(run.packets, 2u);
  EXPECT_EQ(run.bytes, 2'000);
  EXPECT_EQ(run.last_bytes, 1'000);
  EXPECT_EQ(set.bytes_at_level(0, 2), 1'000);
  EXPECT_EQ(set.hol_enqueue_time(0, 2), 5) << "a cut keeps the head";

  run = set.take_run(0, 1'000, 2);
  EXPECT_EQ(run.packets, 1u);
  EXPECT_TRUE(set.empty(0));

  run = set.take_run(0, 1'000, 2);  // empty queue
  EXPECT_EQ(run.packets, 0u);
  EXPECT_EQ(run.bytes, 0);
}

TEST(DestQueueSet, MinLevelMaskSkipsEmptyLevels) {
  // The non-empty-level bitmask must land on the first eligible level even
  // when the levels between min_level and it are empty, and must report
  // nullopt without scanning when nothing at or below min_level exists.
  DestQueueSet set(1, 8);
  set.enqueue_bytes(0, 1, 100, 0, 1);
  set.enqueue_bytes(0, 2, 100, 0, 6);
  EXPECT_FALSE(set.dequeue_packet_at_least(0, 1'000, 7).has_value());
  const auto low = set.dequeue_packet_at_least(0, 1'000, 2);
  ASSERT_TRUE(low.has_value());
  EXPECT_EQ(low->level, 6) << "mask must jump over empty levels 2..5";
  const auto high = set.dequeue_packet_at_least(0, 1'000, 0);
  ASSERT_TRUE(high.has_value());
  EXPECT_EQ(high->level, 1);
  EXPECT_FALSE(set.dequeue_packet_at_least(0, 1'000, 0).has_value());
}

TEST(DestQueue, TotalConservedAcrossOperations) {
  DestQueueSet q(1, 3);
  Bytes expected = 0;
  for (int i = 0; i < 50; ++i) {
    q.enqueue_flow(0, i, 2'500 * (i + 1) % 30'000 + 1, i, pias3());
    expected += 2'500 * (i + 1) % 30'000 + 1;
  }
  while (auto pkt = q.dequeue_packet(0, 1'115)) expected -= pkt->bytes;
  EXPECT_EQ(expected, 0);
  EXPECT_TRUE(q.empty(0));
}

}  // namespace
}  // namespace negotiator
