// End-host selective-repeat ARQ over the lossy data plane
// (core/data_channel.h): per-flow sequence numbering, receiver-side
// duplicate suppression over a reassembly bitmap, cumulative+selective
// acks returned on the host plane, and retransmit timers with
// exponential backoff riding the EventQueue heap.
//
// Placement: the transport wraps every data transmission the fabrics
// make when DataFaultConfig::arq is on. on_transmit() stamps the chunk
// with the flow's next sequence number and tracks it as in flight;
// on_deliver() is consulted by the delivery flush before any flow credit
// happens (a duplicate or post-abandon copy is discarded there, so the
// FlowTable / goodput / host-plane paths only ever see each unit once);
// acks become effective one propagation delay after delivery and are
// drained by flush_acks() at epoch (negotiator) / slot (oblivious)
// boundaries and before any timer handling. An RTO expiry moves the
// flow's timed-out units to per-(src, dst) retransmit FIFOs that the
// fabrics serve *before* fresh queue data in their next slots for that
// pair — a retransmission is a first-hop transmission like any other
// (it redraws the channel and can be lost again).
//
// Timers are lazy, one armed timer per flow at most: a fire first
// flushes acks, re-derives the flow's earliest real deadline, and either
// re-arms (stale wakeup — not counted) or declares a genuine RTO: every
// timed-out unit moves to the retransmit FIFO, the flow's RTO doubles
// (rto_backoff) up to rto_cap_epochs, and max_retries consecutive
// expiries without ack progress abandon the flow's outstanding units
// (terminal, like a non-ARQ drop). Any ack progress resets the backoff.
// An expiry that finds an earlier retransmission of the flow still
// waiting in its FIFO proves congestion, not loss — the fabric has not
// yet attempted the repair (starved behind another flow's debt on the
// shared pair FIFO, or behind a downed link) — so it backs off and
// re-queues but does not count toward max_retries.
//
// Storage is the live window, not the history. Each flow keeps one
// 16-byte record per unit from a release point `base` on: once the
// cumulatively acked prefix [base, cum_tx) is at least half the stored
// records, flush_acks() drops it (a fully acked flow frees its storage
// outright). A released unit is acked and delivered, so any later touch
// of it is a duplicate: a copy is discarded as spurious, an ack resolves
// nothing, and a retransmit item naming it is stale.
//
// The RTO scan needs the flow's in-flight units in transmission order.
// Fresh units go out in index order, so for them the window itself is
// that list: a `fresh_head` cursor walks it past units no longer in
// flight. An RTO queues units only at the head of that scan, so the
// cursor is past every unit that goes out again; each retransmission
// instead pushes a side entry stamped with the window end at push time.
// The two merge back into exact transmission order (a fresh unit went
// out first iff its index is below the entry's stamp), and a loss-free
// flow stores nothing beyond its unit records. The head-consumed FIFOs
// (acks, side entries, retransmit items) drop their consumed prefix on
// the same at-least-half rule, so every structure costs amortised O(1)
// per unit.
//
// A flow's state is pooled, not kept for the run: the flow's 4-byte slot
// entry maps it to a pooled FlowState from its first transmission until
// it is finished — its FlowTable entry is done and every unit it sent is
// acked — and the state then goes back to the pool. A finished flow never
// transmits again, so anything that still names it is stale: a late copy
// is discarded as spurious, a retransmit item is skipped and a timer
// flushes acks and does nothing else, exactly as for its released units.
// Beyond that 4-byte entry per flow, memory therefore tracks the flows in
// progress (plus those that abandoned units, which never finish), not
// simulated time.
//
// Like the data channel, the transport follows the disabled-≡-never-
// constructed contract: with ARQ off it is never built, every chunk
// keeps seq 0, and all golden fingerprints are byte-identical.
//
// Determinism: the transport draws no randomness at all — its state is a
// pure function of the transmission/delivery/timer sequence the fabric
// feeds it, so fixed-seed runs are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/config.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace negotiator {

class FlowTable;  // engine/flow_table.h

class HostTransport {
 public:
  /// `events` outlives the transport; timers are scheduled through it.
  /// `flows` outlives it too and tells which flows are done: a done
  /// flow's state is released once all its units are acked.
  HostTransport(const NetworkConfig& config, EventQueue* events,
                const FlowTable& flows);

  HostTransport(const HostTransport&) = delete;
  HostTransport& operator=(const HostTransport&) = delete;

  /// One unit handed back to the fabric for retransmission.
  struct RetxChunk {
    std::int32_t flow;
    TorId dst;
    Bytes bytes;
    std::uint32_t seq;
  };

  /// Registers one fresh transmission of `bytes` for `flow` (dense
  /// FlowTable index) and returns the wire sequence number to stamp into
  /// the chunk (1-based; 0 means "no transport"). Arms the flow's RTO
  /// timer if none is pending.
  std::uint32_t on_transmit(std::int32_t flow, TorId src, TorId dst,
                            Bytes bytes, Nanos now);

  /// Receiver side, consulted by the delivery flush before flow credit.
  /// Returns true when this is the unit's first arrival (credit it);
  /// false for a duplicate or post-abandon copy (discard — counted as
  /// spurious). Queues the unit's ack, effective one propagation delay
  /// after `now`.
  bool on_deliver(std::int32_t flow, std::uint32_t seq, Bytes bytes,
                  Nanos now);

  /// Drains every ack whose effective time is <= now into sender state.
  void flush_acks(Nanos now);

  /// Timer-expiry hook (EventSink::on_transport_timer forwards here).
  /// Returns true when the fire moved units into a retransmit FIFO —
  /// the fabric then re-gathers the pair for service.
  bool on_timer(std::int32_t flow, Nanos now);

  bool has_retx(TorId src, TorId dst) const {
    return retx_count_[pair_index(src, dst)] > 0;
  }
  /// Any pair out of `src` with retransmit work (oblivious busy-set).
  bool has_retx_from(TorId src) const {
    return retx_from_[static_cast<std::size_t>(src)] > 0;
  }
  /// Pops the next retransmittable unit for (src, dst) and re-marks it in
  /// flight at `now`. Requires has_retx(src, dst). The caller owns the
  /// physical transmission (channel classify + delivery staging).
  RetxChunk take_retx(TorId src, TorId dst, Nanos now);

  /// Visits every (src, dst) pair that currently has retransmit work —
  /// the fabric's epoch-start gather — compacting the drained pairs out
  /// of the active list as it goes.
  template <typename Fn>
  void for_each_retx_pair(Fn&& fn) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < retx_pairs_.size(); ++i) {
      const std::int32_t pair = retx_pairs_[i];
      if (retx_count_[static_cast<std::size_t>(pair)] > 0) {
        retx_pairs_[keep++] = pair;
        fn(static_cast<TorId>(pair / num_tors_),
           static_cast<TorId>(pair % num_tors_));
      } else {
        pair_listed_[static_cast<std::size_t>(pair)] = 0;
      }
    }
    retx_pairs_.resize(keep);
  }

  /// Endpoints of a flow the transport holds state for (see tracks()).
  TorId flow_src(std::int32_t flow) const { return state_of(flow).src; }
  TorId flow_dst(std::int32_t flow) const { return state_of(flow).dst; }
  /// True from the flow's first transmission until it is finished.
  bool tracks(std::int32_t flow) const {
    return static_cast<std::size_t>(flow) < slot_.size() &&
           slot_[static_cast<std::size_t>(flow)] >= 0;
  }

  // Conservation ledger (engine/conservation_auditor.h). Every
  // transmitted unit is in exactly one bucket: unresolved (somewhere
  // between first transmit and its first arrival — in flight, parked at
  // a relay, dropped awaiting RTO, or queued for retransmit), delivered
  // (first copy credited), or abandoned.
  Bytes unresolved_bytes() const { return unresolved_bytes_; }
  Bytes delivered_bytes() const { return delivered_bytes_; }
  Bytes abandoned_bytes() const { return abandoned_bytes_; }
  /// Subset of unresolved sitting in retransmit FIFOs. The fabrics fold
  /// all of unresolved_bytes() into total_backlog() so drain loops keep
  /// simulated time moving while RTO timers are pending; this getter
  /// isolates the part already queued for a retransmit slot.
  Bytes retx_backlog_bytes() const { return retx_backlog_bytes_; }

  Bytes retransmitted_bytes() const { return retransmitted_bytes_; }
  std::int64_t spurious_retx() const { return spurious_retx_; }
  std::int64_t rto_fires() const { return rto_fires_; }
  std::int64_t max_backoff_reached() const { return max_backoff_reached_; }
  std::int64_t abandoned_units() const { return abandoned_units_; }

  /// Entries the transport currently stores, summed over flows and pairs
  /// (consumed FIFO prefixes included). Read-only: it pins the memory
  /// bound, which must track the live window rather than units ever sent.
  struct Footprint {
    std::size_t flows;     // live per-flow states (flows tracked)
    std::size_t units;     // per-flow unit records
    std::size_t inflight;  // per-flow retransmission entries (side lists)
    std::size_t acks;      // queued acks
    std::size_t retx;      // retransmit FIFO entries
  };
  Footprint footprint() const;

 private:
  enum UnitState : std::uint8_t {
    kInFlight,     // transmitted, awaiting ack
    kRetxPending,  // RTO expired, queued for a retransmit slot
    kAcked,        // sender saw the ack (terminal)
    kAbandoned,    // max_retries exceeded (terminal)
  };

  struct Unit {
    Nanos sent_at;        // latest transmission
    std::uint32_t bytes;  // on_transmit asserts the unit fits
    std::uint8_t state{kInFlight};
    bool delivered_rx{false};  // receiver reassembly bitmap
  };

  /// Side entry for one retransmission. Stale once the unit left
  /// kInFlight or went out again (sent_at moved) — validity is re-checked
  /// lazily. Fresh units below `stamp` went out before it, the rest after.
  struct ResentEntry {
    std::uint32_t idx;
    std::uint32_t stamp;  // the flow's end() at push time
    Nanos sent_at;
  };

  /// The flow's earliest live transmission (in transmission order).
  struct InflightHead {
    std::uint32_t idx;
    Nanos sent_at;
  };

  /// Per-flow state. Invariant: base <= cum_tx <= cum_rx <= end().
  /// cum_rx stops at the first abandoned, undelivered unit, so once a
  /// flow abandons, its window stops sliding and the units from there on
  /// stay stored (the stall is bounded by what the flow still sends).
  struct FlowState {
    TorId src{kInvalidTor};
    TorId dst{kInvalidTor};
    std::vector<Unit> units;  // unit idx (= seq - 1) at units[idx - base]
    std::vector<ResentEntry> resent;  // retransmissions, push order
    std::uint32_t resent_head{0};
    std::uint32_t fresh_head{0};  // where the RTO scan resumes on the window
    std::uint32_t base{0};    // units [0, base) acked and released
    std::uint32_t cum_rx{0};  // receiver: units [0, cum_rx) delivered
    std::uint32_t cum_tx{0};  // sender: units [0, cum_tx) acked
    std::int32_t pending{0};  // units currently kRetxPending (FIFO-queued)
    Nanos rto{0};
    int retries{0};
    bool timer_armed{false};

    std::size_t end() const { return base + units.size(); }
    /// The unit's record, or null once released (acked and delivered).
    Unit* find(std::uint32_t idx) {
      return idx < base ? nullptr : &units[idx - base];
    }
  };

  struct Ack {
    Nanos effective;
    std::int32_t flow;
    std::uint32_t seq;
    std::uint32_t cum;  // receiver's cum_rx at delivery time
  };

  struct RetxEntry {
    std::int32_t flow;
    std::uint32_t idx;
  };

  /// One retransmit FIFO per (src, dst); entries may be stale (acked or
  /// abandoned while queued) and are skipped at pop — retx_count_ holds
  /// the live-entry truth.
  struct RetxFifo {
    std::vector<RetxEntry> items;
    std::size_t head{0};
  };

  std::size_t pair_index(TorId src, TorId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(num_tors_) +
           static_cast<std::size_t>(dst);
  }
  /// slot_ values besides a pool index.
  static constexpr std::int32_t kNoState = -1;  // never transmitted
  static constexpr std::int32_t kFinished = -2;  // state released
  /// The flow's state, taken from the pool at its first transmission.
  FlowState& acquire(std::int32_t flow);
  /// The flow's state, or null once it is finished. The flow must have
  /// transmitted.
  FlowState* live_state(std::int32_t flow) {
    // The unsigned cast folds a negative index into the range check.
    NEG_ASSERT(static_cast<std::size_t>(flow) < slot_.size(),
               "flow never transmitted");
    const std::int32_t slot = slot_[static_cast<std::size_t>(flow)];
    if (slot >= 0) return &pool_[static_cast<std::size_t>(slot)];
    NEG_ASSERT(slot == kFinished, "flow never transmitted");
    return nullptr;
  }
  const FlowState& state_of(std::int32_t flow) const {
    NEG_ASSERT(tracks(flow), "flow without transport state");
    return pool_[static_cast<std::size_t>(
        slot_[static_cast<std::size_t>(flow)])];
  }
  /// Returns a finished flow's state to the pool.
  void release_flow(std::int32_t flow);
  void arm_timer(FlowState& f, std::int32_t flow, Nanos when);
  /// Moves both cursors past stale records and reports the earliest live
  /// transmission in `head`; false when nothing is in flight.
  bool inflight_head(FlowState& f, InflightHead* head);
  /// Moves the side-list cursor past stale entries.
  void prune_resent(FlowState& f);
  /// Sender-side ack for one unit; true when it resolved a live unit.
  bool resolve_ack(FlowState& f, std::uint32_t idx);
  /// Releases the acked prefix once it is at least half the stored units.
  void release_acked(FlowState& f);
  void queue_retx(FlowState& f, std::int32_t flow, std::uint32_t idx);
  void abandon_flow(FlowState& f);

  int num_tors_;
  Nanos prop_delay_ns_;
  Nanos base_rto_ns_;
  Nanos rto_cap_ns_;
  double backoff_;
  int max_retries_;
  EventQueue* events_;
  const FlowTable& flow_table_;

  /// Per flow: its pool index, kNoState or kFinished.
  std::vector<std::int32_t> slot_;
  std::vector<FlowState> pool_;
  std::vector<std::int32_t> free_slots_;  // pool entries not in use
  std::vector<Ack> acks_;  // effective-time ordered; head-consumed
  std::size_t acks_head_{0};
  std::vector<RetxFifo> retx_;           // [src * N + dst]
  std::vector<std::int64_t> retx_count_;  // live entries per pair
  std::vector<std::int64_t> retx_from_;   // live entries per source ToR
  std::vector<std::int32_t> retx_pairs_;  // pairs possibly live (compacted)
  std::vector<std::uint8_t> pair_listed_;

  Bytes unresolved_bytes_{0};
  Bytes delivered_bytes_{0};
  Bytes abandoned_bytes_{0};
  Bytes retx_backlog_bytes_{0};
  Bytes retransmitted_bytes_{0};
  std::int64_t spurious_retx_{0};
  std::int64_t rto_fires_{0};
  std::int64_t max_backoff_reached_{0};
  std::int64_t abandoned_units_{0};

 public:
  /// Bytes stored per transmitted unit (pinned by the footprint test).
  static constexpr std::size_t kBytesPerUnit = sizeof(Unit);
};

}  // namespace negotiator
