#include "sim/event_queue.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/assert.h"

namespace negotiator {

// -------------------------------------------------------------- event queue

void EventQueue::push_heap_item(const Item& item) {
  heap_.push_back(item);
  std::push_heap(
      heap_.begin(), heap_.end(),
      [](const Item& a, const Item& b) { return heap_later(a, b); });
}

EventQueue::Item EventQueue::pop_heap_item() {
  std::pop_heap(
      heap_.begin(), heap_.end(),
      [](const Item& a, const Item& b) { return heap_later(a, b); });
  const Item item = heap_.back();
  heap_.pop_back();
  return item;
}

void EventQueue::reserve_flow_arrivals(std::size_t n) {
  arrivals_.reserve(n);
}

void EventQueue::append_flow_arrival(Nanos when, std::int32_t flow_index) {
  NEG_ASSERT(when >= 0, "event time must be non-negative");
  arrivals_.reserve(1);
  arrivals_.append(when, flow_index, next_seq_++);
}

void EventQueue::Stream::append(Nanos when, std::int32_t flow_index,
                                std::uint64_t seq) {
  NEG_ASSERT(flow_index > last_index,
             "flow indices must rise in append order");
  last_index = flow_index;
  const std::uint64_t offset = seq - static_cast<std::uint64_t>(flow_index);
  if (runs.empty() || runs.back().offset != offset) {
    runs.push_back(SeqRun{flow_index, offset});
  }
  items.push_back(Arrival{when, flow_index});
}

std::uint64_t EventQueue::Stream::seq_of(std::int32_t flow_index) const {
  const auto run = std::upper_bound(
      runs.begin(), runs.end(), flow_index,
      [](std::int32_t i, const SeqRun& r) { return i < r.first; });
  NEG_ASSERT(run != runs.begin(), "arrival below every seq run");
  return static_cast<std::uint64_t>(flow_index) + run[-1].offset;
}

void EventQueue::Stream::reserve(std::size_t n) {
  if (items.size() + n <= items.capacity()) return;
  const std::size_t live = items.size() - head;
  std::vector<Arrival> grown;
  grown.reserve(std::max(live + n, 2 * live));
  grown.assign(items.begin() + static_cast<std::ptrdiff_t>(head),
               items.end());
  items = std::move(grown);
  sorted_end -= head;
  head = 0;
  released = 0;
}

void EventQueue::Stream::release_consumed() {
  static const std::uintptr_t page =
      static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto base = reinterpret_cast<std::uintptr_t>(items.data());
  const std::uintptr_t first = (base + page - 1) & ~(page - 1);
  const std::uintptr_t from = first + released;
  const std::uintptr_t to = (base + head * sizeof(Arrival)) & ~(page - 1);
  if (to > from &&
      madvise(reinterpret_cast<void*>(from), to - from, MADV_DONTNEED) == 0) {
    released = to - first;
  }
}

void EventQueue::commit_flow_arrivals() { arrivals_.commit(); }

void EventQueue::Stream::commit() {
  // Seqs rise in append order, so ordering by time alone with stable
  // algorithms keeps every tie in seq order: the result is sorted by
  // (when, seq), exactly the order single pushes would pop in.
  const auto earlier = [](const Arrival& a, const Arrival& b) {
    return a.when < b.when;
  };
  const auto first = items.begin() + static_cast<std::ptrdiff_t>(head);
  auto merged = items.begin() + static_cast<std::ptrdiff_t>(sorted_end);
  // A few sorted runs (a concatenated trace, a later add_flows call) merge
  // into the pending arrivals one run at a time, each merge buffering only
  // the smaller side; a batch of many runs is stably sorted first. An
  // already-sorted batch appended after the pending tail moves nothing.
  std::size_t runs = 0;
  for (auto it = merged; it != items.end() && runs <= kMaxMergedRuns;
       it = std::is_sorted_until(it, items.end(), earlier)) {
    ++runs;
  }
  if (runs > kMaxMergedRuns) std::stable_sort(merged, items.end(), earlier);
  while (merged != items.end()) {
    const auto run_end = std::is_sorted_until(merged, items.end(), earlier);
    if (merged != first && earlier(*merged, merged[-1])) {
      std::inplace_merge(first, merged, run_end, earlier);
    }
    merged = run_end;
  }
  sorted_end = items.size();
}

void EventQueue::schedule_link_toggle(Nanos when, const LinkToggleEvent& ev) {
  NEG_ASSERT(when >= 0, "event time must be non-negative");
  Payload payload;
  payload.link = ev;
  push_heap_item(Item{when, next_seq_++, Kind::kLinkToggle, payload});
}

void EventQueue::schedule_transport_timer(Nanos when,
                                          const TransportTimerEvent& ev) {
  NEG_ASSERT(when >= 0, "event time must be non-negative");
  Payload payload;
  payload.timer = ev;
  push_heap_item(Item{when, next_seq_++, Kind::kTransportTimer, payload});
}

void EventQueue::dispatch(const Item& item) {
  NEG_ASSERT(sink_ != nullptr, "event without a sink");
  switch (item.kind) {
    case Kind::kLinkToggle:
      ++executed_;
      sink_->on_link_toggle(item.payload.link, item.when);
      break;
    case Kind::kTransportTimer:
      ++executed_;
      sink_->on_transport_timer(item.payload.timer, item.when);
      break;
  }
}

int EventQueue::earliest_tier(Nanos& when_out) {
  // Merge the tiers by (when, seq); seq values are globally unique, so the
  // comparison is a strict total order and the tiers may be visited in
  // any order. The arrivals go last, so their derived seq is looked up
  // only on an exact time tie. Requires !empty().
  Nanos best_when = kNeverNs;
  std::uint64_t best_seq = ~0ULL;
  int tier = -1;  // 0 = heap, 1 = arrivals
  if (!heap_.empty()) {
    best_when = heap_.front().when;
    best_seq = heap_.front().seq;
    tier = 0;
  }
  if (!arrivals_.drained()) {
    const Arrival& it = arrivals_.front();
    if (tier < 0 || it.when < best_when ||
        (it.when == best_when &&
         arrivals_.seq_of(it.flow_index) < best_seq)) {
      best_when = it.when;
      tier = 1;
    }
  }
  when_out = best_when;
  return tier;
}

void EventQueue::run_tier(int tier) {
  // Copy the entry out before dispatch: the sink may schedule new events,
  // which can recycle the tier's storage.
  if (tier == 1) {
    const Arrival a = arrivals_.front();
    arrivals_.pop();
    ++executed_;
    NEG_ASSERT(sink_ != nullptr, "event without a sink");
    sink_->on_flow_arrival(FlowArrivalEvent{a.flow_index}, a.when);
    return;
  }
  dispatch(pop_heap_item());
}

void EventQueue::run_until(Nanos until) {
  // One tier-merge comparison per event.
  while (!empty()) {
    Nanos when;
    const int tier = earliest_tier(when);
    if (when > until) return;
    run_tier(tier);
  }
}

}  // namespace negotiator
