#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/relay_delay_line.h"

namespace negotiator {
namespace {

/// Records every event as (tag, when) so tests can assert the exact
/// global firing order across the queue's tiers.
class RecordingSink : public EventSink {
 public:
  struct Fired {
    char kind;  // 'f'low, 'l'ink, 'x' transport timer
    std::int64_t tag;
    Nanos when;
  };

  void on_flow_arrival(const FlowArrivalEvent& e, Nanos now) override {
    fired.push_back(Fired{'f', e.flow_index, now});
  }
  void on_link_toggle(const LinkToggleEvent& e, Nanos now) override {
    fired.push_back(Fired{'l', e.tor, now});
  }
  void on_transport_timer(const TransportTimerEvent& e, Nanos now) override {
    fired.push_back(Fired{'x', e.flow_index, now});
  }

  std::vector<Fired> fired;
};

/// A link toggle tagged `tag` (the heap tier; the tag rides in `tor`).
LinkToggleEvent toggle(std::int64_t tag) {
  return LinkToggleEvent{static_cast<TorId>(tag), 0, LinkDirection::kEgress,
                         true};
}

/// Schedules one flow arrival (the stream tier) as a batch of one.
void schedule_arrival(EventQueue& q, Nanos when, std::int32_t flow_index) {
  q.append_flow_arrival(when, flow_index);
  q.commit_flow_arrivals();
}

/// A transport timer tagged `tag` (the heap tier).
TransportTimerEvent timer(std::int64_t tag) {
  return TransportTimerEvent{static_cast<std::int32_t>(tag)};
}

std::vector<std::int64_t> tags(const RecordingSink& sink) {
  std::vector<std::int64_t> out;
  for (const auto& f : sink.fired) out.push_back(f.tag);
  return out;
}

TEST(EventQueue, EmptyByDefault) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_non_arrival_time(), kNeverNs);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  q.schedule_link_toggle(30, toggle(3));
  q.schedule_link_toggle(10, toggle(1));
  q.schedule_link_toggle(20, toggle(2));
  q.run_until(100);
  EXPECT_EQ(tags(sink), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtSameTimestamp) {
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  for (int i = 0; i < 10; ++i) q.schedule_link_toggle(5, toggle(i));
  q.run_until(5);
  EXPECT_EQ(tags(sink),
            (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, RunUntilIsInclusive) {
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  q.schedule_link_toggle(10, toggle(1));
  q.schedule_link_toggle(11, toggle(2));
  q.run_until(10);
  EXPECT_EQ(sink.fired.size(), 1u);
  EXPECT_EQ(q.next_non_arrival_time(), 11);
}

TEST(EventQueue, EventReceivesItsTimestamp) {
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  q.schedule_link_toggle(77, toggle(1));
  q.run_until(77);
  ASSERT_EQ(sink.fired.size(), 1u);
  EXPECT_EQ(sink.fired[0].when, 77);
}

TEST(EventQueue, SinkMayScheduleMoreEvents) {
  // Each flow arrival schedules a link toggle one tick later from inside
  // its own dispatch; the toggles schedule nothing further.
  class ChainingSink : public RecordingSink {
   public:
    explicit ChainingSink(EventQueue& q) : q_(q) {}
    void on_flow_arrival(const FlowArrivalEvent& e, Nanos now) override {
      RecordingSink::on_flow_arrival(e, now);
      q_.schedule_link_toggle(now + 1, toggle(e.flow_index + 100));
    }

   private:
    EventQueue& q_;
  };
  EventQueue q;
  ChainingSink sink(q);
  q.set_sink(&sink);
  schedule_arrival(q, 1, 1);
  schedule_arrival(q, 1, 2);
  q.run_until(10);
  ASSERT_EQ(sink.fired.size(), 4u);
  EXPECT_EQ(tags(sink), (std::vector<std::int64_t>{1, 2, 101, 102}));
  EXPECT_EQ(sink.fired[2].when, 2);
  EXPECT_EQ(sink.fired[3].when, 2);
}

TEST(EventQueue, EventsCarryTheirPayloads) {
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  schedule_arrival(q, 10, 7);
  q.schedule_link_toggle(20, LinkToggleEvent{3, 1, LinkDirection::kEgress,
                                             true});
  q.schedule_transport_timer(30, TransportTimerEvent{42});
  q.run_until(100);
  ASSERT_EQ(sink.fired.size(), 3u);
  EXPECT_EQ(sink.fired[0].kind, 'f');
  EXPECT_EQ(sink.fired[0].tag, 7);
  EXPECT_EQ(sink.fired[1].kind, 'l');
  EXPECT_EQ(sink.fired[1].tag, 3);
  EXPECT_EQ(sink.fired[2].kind, 'x');
  EXPECT_EQ(sink.fired[2].tag, 42);
}

TEST(EventQueue, EveryTierSharesTheFifoTieBreak) {
  // Ties at the same timestamp fire in schedule order no matter which tier
  // (arrival stream or heap) carries the event.
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  schedule_arrival(q, 5, 100);
  q.schedule_link_toggle(5, toggle(101));
  q.schedule_transport_timer(5, timer(102));
  schedule_arrival(q, 5, 103);
  q.schedule_link_toggle(5, toggle(104));
  q.run_until(5);
  EXPECT_EQ(tags(sink), (std::vector<std::int64_t>{100, 101, 102, 103, 104}));
}

TEST(EventQueue, DerivedArrivalSeqsKeepScheduleOrderAcrossBatches) {
  // An arrival stores no seq: it is derived from the flow index. Two
  // batches, a toggle and a timer scheduled between them and a second
  // toggle inside the second batch (before its commit), all at one
  // timestamp, fire in schedule order. The second batch's indices skip
  // ahead, so it takes two seq runs of its own.
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  for (std::int32_t i = 0; i < 3; ++i) q.append_flow_arrival(5, i);
  q.commit_flow_arrivals();
  q.schedule_link_toggle(5, toggle(100));
  q.schedule_transport_timer(5, timer(200));
  q.append_flow_arrival(5, 10);
  q.append_flow_arrival(5, 11);
  q.schedule_link_toggle(5, toggle(101));
  q.append_flow_arrival(5, 12);
  q.append_flow_arrival(5, 20);
  q.commit_flow_arrivals();
  q.schedule_transport_timer(5, timer(201));
  q.run_until(5);
  EXPECT_EQ(tags(sink), (std::vector<std::int64_t>{0, 1, 2, 100, 200, 10, 11,
                                                   101, 12, 20, 201}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FlowIndicesMustRiseInAppendOrder) {
  EventQueue q;
  q.append_flow_arrival(5, 3);
  EXPECT_DEATH(q.append_flow_arrival(6, 3), "rise in append order");
  q.commit_flow_arrivals();
  // Across batches too, while the earlier arrivals are stored.
  EXPECT_DEATH(schedule_arrival(q, 1, 2), "rise in append order");
}

TEST(EventQueue, OutOfOrderArrivalsMergeWithoutReordering) {
  // An arrival scheduled before the stream tail must still fire in global
  // (time, schedule-order) position.
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  schedule_arrival(q, 50, 1);
  schedule_arrival(q, 10, 2);  // out of order -> merged ahead of #1
  schedule_arrival(q, 50, 3);
  schedule_arrival(q, 10, 4);  // also out of order, ties with #2
  EXPECT_EQ(q.heap_size(), 0u);
  q.run_until(100);
  ASSERT_EQ(sink.fired.size(), 4u);
  EXPECT_EQ(sink.fired[0].tag, 2);
  EXPECT_EQ(sink.fired[1].tag, 4);
  EXPECT_EQ(sink.fired[2].tag, 1);
  EXPECT_EQ(sink.fired[3].tag, 3);
}

/// Fires everything in `q` and returns the arrivals as (when, index).
std::vector<std::pair<Nanos, std::int64_t>> drain_arrivals(EventQueue& q) {
  RecordingSink sink;
  q.set_sink(&sink);
  q.run_until(kNeverNs - 1);
  std::vector<std::pair<Nanos, std::int64_t>> out;
  for (const auto& f : sink.fired) out.emplace_back(f.when, f.tag);
  return out;
}

TEST(EventQueue, BatchedArrivalsFireInTimeThenInputOrder) {
  // Property: a random trace made of k sorted runs (the shape of a
  // concatenated workload) fires in (time, input index) order — equal-time
  // ties in input order — whether it is committed as one batch, as one
  // batch per run, or one arrival at a time. k spans both sides of
  // kMaxMergedRuns (run-by-run merging vs sort-then-merge), and no arrival
  // ever lands in the heap.
  Rng rng(0xad417);
  for (int round = 0; round < 60; ++round) {
    const auto n = static_cast<std::size_t>(1 + rng.next_below(400));
    const auto k = static_cast<std::size_t>(1 + rng.next_below(16));
    std::vector<Nanos> when(n);
    std::vector<std::size_t> run_start;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t b = r * n / k;
      const std::size_t e = (r + 1) * n / k;
      if (b == e) continue;
      run_start.push_back(b);
      // A narrow time range makes equal-time ties common.
      for (std::size_t i = b; i < e; ++i) when[i] = rng.next_below(60);
      std::sort(when.begin() + static_cast<std::ptrdiff_t>(b),
                when.begin() + static_cast<std::ptrdiff_t>(e));
    }
    std::vector<std::pair<Nanos, std::int64_t>> expected;
    for (std::size_t i = 0; i < n; ++i) {
      expected.emplace_back(when[i], static_cast<std::int64_t>(i));
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    EventQueue one_batch;
    EventQueue per_run;
    EventQueue per_flow;
    one_batch.reserve_flow_arrivals(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto index = static_cast<std::int32_t>(i);
      one_batch.append_flow_arrival(when[i], index);
      per_run.append_flow_arrival(when[i], index);
      if (i + 1 == n || std::binary_search(run_start.begin(),
                                           run_start.end(), i + 1)) {
        per_run.commit_flow_arrivals();
      }
      schedule_arrival(per_flow, when[i], index);
    }
    one_batch.commit_flow_arrivals();
    for (EventQueue* q : {&one_batch, &per_run, &per_flow}) {
      EXPECT_EQ(q->heap_size(), 0u) << "round " << round;
      EXPECT_EQ(q->size(), n) << "round " << round;
      EXPECT_EQ(drain_arrivals(*q), expected) << "round " << round;
    }
  }
}

TEST(EventQueue, LateBatchMergesIntoPartlyConsumedArrivals) {
  // A second admission while the first batch is half consumed (a trace
  // added mid-run) merges behind the cursor's position: every remaining
  // arrival still fires in (time, schedule order).
  Rng rng(77);
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  for (std::int32_t i = 0; i < 200; ++i) {
    q.append_flow_arrival(static_cast<Nanos>(i / 2), i);  // sorted, ties
  }
  q.commit_flow_arrivals();
  q.run_until(49);
  ASSERT_EQ(sink.fired.size(), 100u);
  std::vector<std::pair<Nanos, std::int64_t>> expected;
  for (std::int32_t i = 100; i < 200; ++i) expected.emplace_back(i / 2, i);
  for (std::int32_t i = 200; i < 300; ++i) {
    const Nanos when = 50 + rng.next_below(60);  // unsorted, ties
    q.append_flow_arrival(when, i);
    expected.emplace_back(when, i);
  }
  q.commit_flow_arrivals();
  EXPECT_EQ(q.heap_size(), 0u);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  EXPECT_EQ(drain_arrivals(q), expected);
}

TEST(EventQueue, StagedArrivalsAreInvisibleUntilCommitted) {
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  q.append_flow_arrival(5, 1);
  EXPECT_TRUE(q.empty());
  q.run_until(10);
  EXPECT_TRUE(sink.fired.empty());
  q.commit_flow_arrivals();
  EXPECT_EQ(q.size(), 1u);
  q.run_until(4);
  EXPECT_TRUE(sink.fired.empty());
  q.run_until(5);
  EXPECT_EQ(tags(sink), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(sink.fired[0].when, 5);
}

/// Most bytes the arrival stream may retain beyond its `live` (pending or
/// staged) entries: one release step plus the partial pages at its ends.
std::size_t retained_bound(std::size_t live) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return live * EventQueue::kBytesPerArrival +
         EventQueue::kArrivalReleaseBytes + 2 * page;
}

TEST(EventQueue, ConsumedArrivalsAreReleasedAsTheyPop) {
  // The stream holds memory for pending arrivals, not admitted history:
  // its retained bytes never rise while arrivals pop, stay within one
  // release step of the pending entries, and reach 0 when it drains.
  constexpr std::size_t kArrivals = 40'000;  // ~940 KiB of entries
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  q.reserve_flow_arrivals(kArrivals);
  for (std::size_t i = 0; i < kArrivals; ++i) {
    q.append_flow_arrival(static_cast<Nanos>(i / 3),
                          static_cast<std::int32_t>(i));
  }
  q.commit_flow_arrivals();
  std::size_t last = q.arrival_bytes_retained();
  EXPECT_EQ(last, kArrivals * EventQueue::kBytesPerArrival);
  // Three arrivals share each timestamp; pop one timestamp at a time.
  for (Nanos t = 0; sink.fired.size() < kArrivals; ++t) {
    q.run_until(t);
    const std::size_t popped = sink.fired.size();
    ASSERT_EQ(popped, std::min<std::size_t>(kArrivals, 3 * (t + 1)));
    const std::size_t retained = q.arrival_bytes_retained();
    ASSERT_LE(retained, last) << "after " << popped << " pops";
    ASSERT_LE(retained, retained_bound(kArrivals - popped))
        << "after " << popped << " pops";
    last = retained;
  }
  EXPECT_EQ(last, 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(sink.fired.size(), kArrivals);
}

TEST(EventQueue, ReleasePropertyRandomizedInterleavingsMatchReference) {
  // Property: however appends, commits and pops interleave with the
  // stream's page release, events fire in (when, schedule order) exactly
  // as a reference ordered set predicts. Batches are big enough to cross
  // release steps, are staged and committed after pages went back, grow
  // the stream past a consumed prefix (with and without a reservation),
  // tie heavily in time, and interleave with near timers, timers a long
  // span out and link toggles. The stream never retains more than one
  // release step beyond its live entries.
  constexpr Nanos kFar = 262'144;  // ns
  Rng rng(4242);
  for (int round = 0; round < 8; ++round) {
    EventQueue q;
    RecordingSink sink;
    q.set_sink(&sink);
    // (when, seq, kind); the seq doubles as the event's tag.
    using Ref = std::tuple<Nanos, std::int64_t, char>;
    std::set<Ref> pending;
    std::vector<Ref> staged;
    std::size_t live_arrivals = 0;  // pending or staged
    std::int64_t seq = 0;
    Nanos now = 0;

    // Runs every event of the earliest pending timestamp and checks each
    // against the reference, in order; adds the count to `popped`.
    auto pop_earliest = [&](std::int64_t& popped) {
      ASSERT_FALSE(pending.empty());
      const Nanos when = std::get<0>(*pending.begin());
      const std::size_t first = sink.fired.size();
      q.run_until(when);
      for (std::size_t i = first; i < sink.fired.size(); ++i) {
        ASSERT_FALSE(pending.empty());
        const Ref want = *pending.begin();
        pending.erase(pending.begin());
        if (std::get<2>(want) == 'f') --live_arrivals;
        const RecordingSink::Fired& got = sink.fired[i];
        ASSERT_EQ(got.kind, std::get<2>(want)) << "seq " << std::get<1>(want);
        ASSERT_EQ(got.tag, std::get<1>(want));
        ASSERT_EQ(got.when, std::get<0>(want));
        ++popped;
      }
      ASSERT_TRUE(pending.empty() || std::get<0>(*pending.begin()) > when)
          << "an event due at " << when << " did not fire";
      now = when;
    };

    for (int op = 0; op < 300; ++op) {
      switch (rng.next_below(6)) {
        case 0: {  // stage a batch, maybe reserved ahead like add_flows
          const auto n = static_cast<std::size_t>(1 + rng.next_below(4000));
          if (rng.next_below(2) == 0) q.reserve_flow_arrivals(n);
          const Nanos span = 1 + rng.next_below(3000);
          for (std::size_t i = 0; i < n; ++i) {
            const Nanos when = now + rng.next_below(span) / 4 * 4;  // ties
            q.append_flow_arrival(when, static_cast<std::int32_t>(seq));
            staged.emplace_back(when, seq++, 'f');
          }
          live_arrivals += n;
          break;
        }
        case 1:
          q.commit_flow_arrivals();
          pending.insert(staged.begin(), staged.end());
          staged.clear();
          break;
        case 2: {  // a near timer, a far timer or a link toggle
          const std::int64_t kind = rng.next_below(3);
          const Nanos when = now + rng.next_below(2000) +
                             (kind == 1 ? kFar : 0);
          if (kind == 2) {
            q.schedule_link_toggle(when, toggle(seq));
            pending.emplace(when, seq++, 'l');
          } else {
            q.schedule_transport_timer(when, timer(seq));
            pending.emplace(when, seq++, 'x');
          }
          break;
        }
        default: {  // pop a run of events, whole timestamps at a time
          const auto k = rng.next_below(3000);
          for (std::int64_t popped = 0; popped < k && !pending.empty();) {
            ASSERT_NO_FATAL_FAILURE(pop_earliest(popped)) << "round " << round;
          }
          break;
        }
      }
      ASSERT_EQ(q.size(), pending.size()) << "round " << round;
      ASSERT_LE(q.arrival_bytes_retained(), retained_bound(live_arrivals))
          << "round " << round << " op " << op;
    }
    q.commit_flow_arrivals();
    pending.insert(staged.begin(), staged.end());
    staged.clear();
    for (std::int64_t popped = 0; !pending.empty();) {
      ASSERT_NO_FATAL_FAILURE(pop_earliest(popped)) << "round " << round;
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.arrival_bytes_retained(), 0u) << "round " << round;
  }
}

TEST(EventQueue, DeterminismPropertyRandomizedMixedSchedule) {
  // Property: however events are scheduled — pre-run or between running
  // events, on any tier, tied or not — the firing order is exactly the
  // (timestamp, schedule order) sort. The reference order is tracked with
  // a monotonically increasing schedule counter. The mix covers the
  // arrival stream, link toggles, near timers and timers a long span out.
  constexpr Nanos kFar = 262'144;  // ns
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    RecordingSink sink;
    q.set_sink(&sink);
    std::vector<std::pair<Nanos, std::int64_t>> expected;  // (when, sched#)
    std::multiset<Nanos> pending;  // times of the events not yet fired
    std::int64_t sched = 0;

    auto schedule_one = [&](Nanos when) {
      const std::int64_t id = sched++;
      switch (rng.next_below(4)) {
        case 0:
          schedule_arrival(q, when, static_cast<std::int32_t>(id));
          break;
        case 1:
          q.schedule_transport_timer(when, timer(id));
          break;
        case 2:
          q.schedule_link_toggle(when, toggle(id));
          break;
        default:
          when += kFar;  // a backed-off timer
          q.schedule_transport_timer(when, timer(id));
          break;
      }
      pending.insert(when);
      expected.emplace_back(when, id);
    };

    // Pre-run: a mix of sorted and random timestamps with heavy ties.
    Nanos cursor = 0;
    for (int i = 0; i < 120; ++i) {
      if (rng.next_below(2) == 0) {
        cursor += rng.next_below(3);  // mostly non-decreasing, many ties
        schedule_one(cursor);
      } else {
        schedule_one(rng.next_below(200));
      }
    }

    // During-run: every 7th event schedules 0-2 future events. The queue
    // runs one timestamp at a time; an event scheduled at that timestamp
    // fires after every event already due there, either way.
    std::int64_t processed = 0;
    while (!pending.empty()) {
      const Nanos now = *pending.begin();
      const std::size_t fired = sink.fired.size();
      q.run_until(now);
      const std::size_t due = pending.erase(now);
      ASSERT_EQ(sink.fired.size() - fired, due) << "round " << round;
      for (std::size_t i = 0; i < due; ++i) {
        if (++processed % 7 == 0) {
          const std::int64_t extra = rng.next_below(3);
          for (std::int64_t e = 0; e < extra; ++e) {
            schedule_one(now + rng.next_below(4));  // may tie with pending
          }
        }
      }
    }
    EXPECT_TRUE(q.empty()) << "round " << round;

    // Reference: stable sort by timestamp == sort by (when, sched#).
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(sink.fired.size(), expected.size()) << "round " << round;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(sink.fired[i].tag, expected[i].second)
          << "round " << round << " position " << i;
    }
  }
}

TEST(EventQueue, TimerPropertyRandomizedSpansMatchStableSort) {
  // Property: transport timers — whatever mix of ties, near, mid-range and
  // far deadlines the schedule produces, interleaved with pops — fire in
  // exactly (timestamp, schedule order).
  constexpr Nanos kNear = 256;     // ns
  constexpr Nanos kFar = 262'144;  // ns
  Rng rng(777);
  for (int round = 0; round < 15; ++round) {
    EventQueue q;
    RecordingSink sink;
    q.set_sink(&sink);
    std::vector<std::pair<Nanos, std::int64_t>> expected;  // (when, sched#)
    std::int64_t sched = 0;
    Nanos now = 0;

    auto schedule_one = [&](Nanos when) {
      q.schedule_transport_timer(when, timer(sched));
      expected.emplace_back(when, sched);
      ++sched;
    };

    for (int i = 0; i < 100; ++i) {
      switch (rng.next_below(4)) {
        case 0:  // ties and near-future entries
          schedule_one(now + rng.next_below(kNear));
          break;
        case 1:  // a few near spans out
          schedule_one(now + rng.next_below(16 * kNear));
          break;
        case 2:
          schedule_one(now + rng.next_below(kFar));
          break;
        default:  // backed-off deadlines
          schedule_one(now + kFar + rng.next_below(kFar));
          break;
      }
      // Interleave pops, one timestamp at a time, so timers are
      // scheduled behind popped ones.
      while (!q.empty() && rng.next_below(3) == 0) {
        now = std::max(now, q.next_non_arrival_time());
        q.run_until(now);
      }
    }
    q.run_until(kNeverNs - 1);

    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(sink.fired.size(), expected.size()) << "round " << round;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(sink.fired[i].tag, expected[i].second)
          << "round " << round << " position " << i;
      EXPECT_EQ(sink.fired[i].when, expected[i].first)
          << "round " << round << " position " << i;
    }
  }
}

TEST(EventQueue, TransportTimersCarryTheirPayloadAndInterleave) {
  // Retransmit timers ride the heap and share the global
  // (timestamp, schedule order) tie-break with the arrival stream.
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  schedule_arrival(q, 5, 100);
  q.schedule_transport_timer(5, TransportTimerEvent{101});
  q.schedule_link_toggle(5, toggle(102));
  q.schedule_transport_timer(3, TransportTimerEvent{103});
  q.run_until(10);
  ASSERT_EQ(sink.fired.size(), 4u);
  EXPECT_EQ(sink.fired[0].kind, 'x');
  EXPECT_EQ(sink.fired[0].tag, 103);
  EXPECT_EQ(sink.fired[0].when, 3);
  EXPECT_EQ(sink.fired[1].tag, 100);
  EXPECT_EQ(sink.fired[2].kind, 'x');
  EXPECT_EQ(sink.fired[2].tag, 101);
  EXPECT_EQ(sink.fired[3].kind, 'l');
  EXPECT_EQ(sink.fired[3].tag, 102);
}

TEST(EventQueue, TransportTimerRearmPropertyIsDeterministic) {
  // Property: a randomized mix of timers clustered around one deadline
  // span — re-armed from inside firing events, exactly the lazy re-arm
  // shape HostTransport produces — fires in the exact (timestamp, schedule
  // order) sort, twice over with identical results.
  constexpr Nanos kSpan = 262'144;  // ns
  /// Calls `on_fire` from inside every timer's dispatch.
  class RearmSink : public RecordingSink {
   public:
    void on_transport_timer(const TransportTimerEvent& e,
                            Nanos now) override {
      RecordingSink::on_transport_timer(e, now);
      on_fire(now);
    }
    std::function<void(Nanos)> on_fire;
  };
  std::vector<std::vector<std::int64_t>> runs;
  for (int run = 0; run < 2; ++run) {
    Rng rng(4242);  // same seed both runs: the order must be identical
    EventQueue q;
    RearmSink sink;
    q.set_sink(&sink);
    std::vector<std::pair<Nanos, std::int64_t>> expected;  // (when, sched#)
    std::int64_t sched = 0;
    auto schedule_one = [&](Nanos when) {
      q.schedule_transport_timer(
          when, TransportTimerEvent{static_cast<std::int32_t>(sched)});
      expected.emplace_back(when, sched);
      ++sched;
    };
    // Seed timers clustered around the span from t=0.
    for (int i = 0; i < 60; ++i) {
      schedule_one(kSpan - 8 + rng.next_below(16));
    }
    // Drain, every third firing timer re-arming one with a span up to
    // twice as long.
    std::int64_t processed = 0;
    sink.on_fire = [&](Nanos now) {
      if (++processed % 3 == 0 && sched < 200) {
        schedule_one(now + (rng.next_below(2) == 0
                                ? rng.next_below(kSpan)
                                : kSpan + rng.next_below(kSpan)));
      }
    };
    q.run_until(kNeverNs - 1);
    EXPECT_TRUE(q.empty());
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(sink.fired.size(), expected.size()) << "run " << run;
    std::vector<std::int64_t> got;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(sink.fired[i].tag, expected[i].second) << "position " << i;
      EXPECT_EQ(sink.fired[i].when, expected[i].first) << "position " << i;
      got.push_back(sink.fired[i].tag);
    }
    runs.push_back(std::move(got));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(EventQueue, ExecutedCounterCountsEveryTier) {
  EventQueue q;
  RecordingSink sink;
  q.set_sink(&sink);
  schedule_arrival(q, 1, 1);
  q.schedule_transport_timer(2, timer(2));
  q.schedule_link_toggle(3, toggle(3));
  EXPECT_EQ(q.executed(), 0u);
  q.run_until(10);
  EXPECT_EQ(q.executed(), 3u);
}

/// Lands every span of `line` due by `t` and returns the landed chunks'
/// flow ids, in landing order.
std::vector<FlowId> land(RelayDelayLine& line, Nanos t) {
  std::vector<FlowId> out;
  line.land_until(t, [&](const RelayDelayLine::Chunk& c) {
    out.push_back(c.flow);
  });
  return out;
}

TEST(RelayDelayLine, SpansLandInAppendOrder) {
  RelayDelayLine line;
  line.append(RelayDelayLine::Chunk{3, 7, 100, 1'000, 4});
  line.append(RelayDelayLine::Chunk{5, 2, 101, 2'000});
  line.close_span(40);
  line.append(RelayDelayLine::Chunk{3, 8, 102, 3'000});
  line.close_span(40);  // a second span at the same time lands after
  line.append(RelayDelayLine::Chunk{3, 8, 103, 3'000});
  line.close_span(60);
  std::vector<RelayDelayLine::Chunk> got;
  line.land_until(50, [&](const RelayDelayLine::Chunk& c) {
    got.push_back(c);
  });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].intermediate, 3);
  EXPECT_EQ(got[0].final_dst, 7);
  EXPECT_EQ(got[0].flow, 100);
  EXPECT_EQ(got[0].bytes, 1'000);
  EXPECT_EQ(got[0].seq, 4u);
  EXPECT_EQ(got[1].flow, 101);
  EXPECT_EQ(got[2].flow, 102);
  EXPECT_EQ(land(line, 100), (std::vector<FlowId>{103}));
  EXPECT_TRUE(land(line, 1'000).empty());

  // A long periodic stream, as a slot walk drives it: each slot appends
  // chunks and closes a span that lands 20 slots later, while the slot's
  // clock advance lands what is due. Order must hold while the landed
  // prefix is recycled.
  std::vector<FlowId> landed;
  FlowId id = 0;
  Nanos now = 1'000;
  for (int slot = 0; slot < 4'000; ++slot) {
    const std::vector<FlowId> due = land(line, now);
    landed.insert(landed.end(), due.begin(), due.end());
    for (int k = 0; k < slot % 4; ++k) {
      line.append(RelayDelayLine::Chunk{0, 1, id++, 1});
    }
    line.close_span(now + 20 * 100);
    now += 100;
  }
  const std::vector<FlowId> rest = land(line, kNeverNs);
  landed.insert(landed.end(), rest.begin(), rest.end());
  ASSERT_EQ(landed.size(), static_cast<std::size_t>(id));
  for (FlowId i = 0; i < id; ++i) {
    ASSERT_EQ(landed[static_cast<std::size_t>(i)], i);
  }
}

TEST(RelayDelayLine, LandingIsInclusiveOfT) {
  RelayDelayLine line;
  line.append(RelayDelayLine::Chunk{0, 1, 1, 1});
  line.close_span(10);
  EXPECT_TRUE(land(line, 9).empty());
  EXPECT_EQ(land(line, 10), (std::vector<FlowId>{1}));
}

TEST(RelayDelayLine, CountsLandedChunksAndSpans) {
  // FabricSim's events_executed() counts one event per landed chunk and
  // its events_dispatched() one dispatch per landed span.
  RelayDelayLine line;
  for (FlowId f = 0; f < 3; ++f) {
    line.append(RelayDelayLine::Chunk{0, 1, f, 1});
  }
  line.close_span(5);
  line.append(RelayDelayLine::Chunk{0, 1, 3, 1});
  line.close_span(6);
  line.append(RelayDelayLine::Chunk{0, 1, 4, 1});
  line.close_span(7);
  land(line, 6);
  EXPECT_EQ(line.landed_chunks(), 4u);
  EXPECT_EQ(line.landed_spans(), 2u);
  land(line, 7);
  EXPECT_EQ(line.landed_chunks(), 5u);
  EXPECT_EQ(line.landed_spans(), 3u);
}

TEST(RelayDelayLine, EmptyCloseIsANoOp) {
  RelayDelayLine line;
  line.close_span(10);
  line.append(RelayDelayLine::Chunk{0, 1, 1, 1});
  line.close_span(10);
  line.close_span(11);  // nothing appended since the last close
  EXPECT_EQ(land(line, 20), (std::vector<FlowId>{1}));
  EXPECT_EQ(line.landed_spans(), 1u);
}

TEST(RelayDelayLine, SpanStampedBeforeTheTailDies) {
  RelayDelayLine line;
  line.append(RelayDelayLine::Chunk{0, 1, 1, 1});
  line.close_span(100);
  line.append(RelayDelayLine::Chunk{0, 1, 2, 1});
  EXPECT_DEATH(line.close_span(50), "lands before the one ahead");
}

}  // namespace
}  // namespace negotiator
