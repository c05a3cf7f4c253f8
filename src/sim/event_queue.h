// A deterministic discrete-event queue, engineered for the hot path.
//
// Ordering contract: events fire in (timestamp, schedule order). Events
// scheduled for the same timestamp fire in insertion order (FIFO tie break
// via a monotonically increasing sequence number shared by every schedule_*
// entry point), which keeps runs reproducible regardless of heap internals.
//
// Every event is a plain record dispatched to an EventSink — no
// std::function, no per-event heap allocation. Two storage tiers hold
// the records; pops merge the tier heads by (timestamp, seq), so
// observable order is always identical to a single binary heap:
//
//  - Stream: every flow arrival, as a 12-byte (when, flow) entry in one
//    sorted array consumed by a cursor. Flow indices rise in append
//    order, so an entry's seq is not stored but derived from its flow
//    index through a small table of runs, and read only when the entry
//    ties another tier's head in time. Arrivals are admitted in
//    batches, each merged into the pending arrivals stably by time (an
//    already-sorted batch behind the tail moves nothing), so a
//    concatenated or multi-call trace stays out of the heap. Consumed
//    entries are handed back to the OS as the cursor advances, so the
//    stream holds memory for pending arrivals, not admitted history.
//  - Heap: every other event — link toggles and ARQ retransmission
//    timers — in one tagged-union record (Item). Both are few: the lossy
//    benchmark workload keeps at most a few hundred timers pending.
//
// Relay chunks in flight are not events: they land through the fabric's
// relay delay line (sim/relay_delay_line.h).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace negotiator {

/// A flow (by dense FlowTable index) reaching its source ToR.
struct FlowArrivalEvent {
  std::int32_t flow_index;
};

/// A directed link failing (fail=true) or recovering.
struct LinkToggleEvent {
  TorId tor;
  PortId port;
  LinkDirection dir;
  bool fail;
};

/// An ARQ retransmission timer (tor/host_transport.h) expiring for one
/// flow. Timers are lazy: a fire may be stale (the ack already arrived),
/// so the transport re-derives the flow's real deadline on receipt.
struct TransportTimerEvent {
  std::int32_t flow_index;
};

/// Receiver of typed events; implemented by the fabric engines.
class EventSink {
 public:
  virtual void on_flow_arrival(const FlowArrivalEvent& e, Nanos now) = 0;
  virtual void on_link_toggle(const LinkToggleEvent& e, Nanos now) = 0;
  /// ARQ retransmission timer expiry.
  virtual void on_transport_timer(const TransportTimerEvent& e,
                                  Nanos now) = 0;

 protected:
  ~EventSink() = default;
};

class EventQueue {
 public:
  /// Registers the receiver of events. Must be set before the first event
  /// fires.
  void set_sink(EventSink* sink) { sink_ = sink; }

  /// Batch admission of flow arrivals: append_flow_arrival() stages
  /// arrivals in schedule order (each takes the next seq) and
  /// commit_flow_arrivals() files everything appended since the last
  /// commit — sorted stably by time, then merged into the pending
  /// arrivals. Staged arrivals are invisible until the commit. Pops stay
  /// in (when, seq) order, exactly as if each arrival had been scheduled
  /// on its own. `flow_index` must exceed that of every arrival still
  /// stored (pending or staged): the seq is derived from it.
  void append_flow_arrival(Nanos when, std::int32_t flow_index);
  void commit_flow_arrivals();
  /// Makes room for `n` more arrivals ahead of a batch; the first
  /// reservation is exact, so admitting a whole trace allocates once.
  void reserve_flow_arrivals(std::size_t n);
  /// Link toggles and ARQ retransmission timers take the heap.
  void schedule_link_toggle(Nanos when, const LinkToggleEvent& e);
  void schedule_transport_timer(Nanos when, const TransportTimerEvent& e);

  bool empty() const { return heap_.empty() && arrivals_.drained(); }
  std::size_t size() const { return heap_.size() + arrivals_.pending(); }

  /// Timestamp of the earliest pending link toggle or ARQ timer — every
  /// event but a flow arrival; kNeverNs when none is pending.
  Nanos next_non_arrival_time() const {
    return heap_.empty() ? kNeverNs : heap_.front().when;
  }

  /// Read-only peek at the committed pending flow arrivals: calls
  /// `visit(flow_index)` for each with timestamp <= `t`, in firing order.
  template <typename Visit>
  void for_each_arrival_until(Nanos t, Visit&& visit) const {
    for (std::size_t i = arrivals_.head;
         i < arrivals_.sorted_end && arrivals_.items[i].when <= t; ++i) {
      visit(arrivals_.items[i].flow_index);
    }
  }

  /// Runs every event with timestamp <= `until` (inclusive).
  void run_until(Nanos until);

  /// Events executed so far (perf accounting).
  std::uint64_t executed() const { return executed_; }

  /// Entries in the heap tier (exposed for the admission tests: flow
  /// arrivals never land there).
  std::size_t heap_size() const { return heap_.size(); }

  /// Bytes of arrival-stream storage still held: every stored entry,
  /// pending or consumed, less the pages already returned to the OS
  /// (exposed for the memory tests). 0 once the stream drains.
  std::size_t arrival_bytes_retained() const {
    return arrivals_.retained_bytes();
  }
  /// Consumed arrival bytes that trigger a release: one madvise per
  /// 64 KiB keeps the calls rare and the unreleased prefix small.
  static constexpr std::size_t kArrivalReleaseBytes = 64 * 1024;

 private:
  enum class Kind : std::uint8_t {
    kLinkToggle,
    kTransportTimer,
  };

  union Payload {
    LinkToggleEvent link;
    TransportTimerEvent timer;
    Payload() : timer{0} {}
  };

  /// The event record of the heap tier.
  struct Item {
    Nanos when;
    std::uint64_t seq;
    Kind kind;
    Payload payload;

    /// Heap priority: *lowest* (when, seq) on top under std::push_heap's
    /// max-heap convention, hence the inverted comparison.
    friend bool heap_later(const Item& a, const Item& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// One pending flow arrival in the stream tier, packed to 12 bytes; its
  /// seq is Stream::seq_of(flow_index).
#pragma pack(push, 4)
  struct Arrival {
    Nanos when;
    std::int32_t flow_index;
  };
#pragma pack(pop)

  /// The arrivals appended from flow index `first` on (up to the next
  /// run's) took seq = flow_index + offset, modulo 2^64.
  struct SeqRun {
    std::int32_t first;
    std::uint64_t offset;
  };

  /// The flow-arrival tier: one array sorted by (when, seq) over
  /// [head, sorted_end), consumed through the head cursor; entries past
  /// sorted_end are staged by append_flow_arrival and not yet committed.
  /// Flow indices rise in append order, and so do seqs, so the seqs of
  /// the stored entries are a step function of the flow index: `runs`
  /// holds one SeqRun per step (one per batch unless other events were
  /// scheduled between its appends).
  /// Consumed entries go back to the OS as the head advances: the whole
  /// pages below it are released every kArrivalReleaseBytes, the storage is
  /// freed when the stream drains, and growth copies only the entries
  /// past the head, so a released page is never touched again.
  struct Stream {
    std::vector<Arrival> items;
    std::vector<SeqRun> runs;  // ascending `first`
    std::int64_t last_index{-1};  // flow index of the latest append
    std::size_t head{0};
    std::size_t sorted_end{0};
    /// Bytes of `items`' storage released so far: the whole pages from
    /// the first page boundary in the storage on.
    std::size_t released{0};

    bool drained() const { return head == sorted_end; }
    std::size_t pending() const { return sorted_end - head; }
    const Arrival& front() const { return items[head]; }
    /// Stages one arrival that took `seq`.
    void append(Nanos when, std::int32_t flow_index, std::uint64_t seq);
    /// The seq the stored arrival of `flow_index` took.
    std::uint64_t seq_of(std::int32_t flow_index) const;
    /// Consumes the front entry, releasing storage behind it.
    void pop() {
      ++head;
      if (head == items.size()) {
        clear();
      } else if (head * sizeof(Arrival) - released >= kArrivalReleaseBytes) {
        release_consumed();
      }
    }
    /// Returns the whole pages below the head to the OS.
    void release_consumed();
    /// Makes room for `n` more staged entries. Growing moves only the
    /// entries past the head into fresh storage: exactly sized the first
    /// time, at least double the live entries after that (amortised O(1)
    /// appends).
    void reserve(std::size_t n);
    /// Merges the staged entries into the pending ones, stably by time.
    void commit();
    /// Staged batches with more sorted runs than this are sorted before
    /// merging. Measured crossover (g++ -O2, one Xeon core, runs of
    /// uniformly random times spanning the same range): merging run by
    /// run beats one stable_sort up to 32 runs at both 50 k and 600 k
    /// arrivals (27 vs 38 ms at 600 k) and loses at 64 (53 vs 49 ms).
    static constexpr std::size_t kMaxMergedRuns = 32;
    /// Frees the storage.
    void clear() { *this = Stream{}; }
    std::size_t retained_bytes() const {
      return items.size() * sizeof(Arrival) - released;
    }
  };

  void push_heap_item(const Item& item);
  Item pop_heap_item();
  void dispatch(const Item& item);
  /// Tier (0 = heap, 1 = arrivals) holding the globally
  /// earliest (when, seq) event; requires !empty().
  int earliest_tier(Nanos& when_out);
  /// Pops and dispatches the head of `tier`.
  void run_tier(int tier);

  std::vector<Item> heap_;  // binary heap ordered by heap_later
  Stream arrivals_;         // flow arrivals, sorted at admission
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};

  EventSink* sink_{nullptr};

 public:
  /// Bytes stored per pending flow arrival (pinned by the footprint test).
  static constexpr std::size_t kBytesPerArrival = sizeof(Arrival);
};

}  // namespace negotiator
