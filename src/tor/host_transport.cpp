#include "tor/host_transport.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "engine/flow_table.h"

namespace negotiator {
namespace {

/// Drops a head-consumed FIFO's consumed prefix once it is at least half
/// the stored entries: each entry moves at most once per consumption, so
/// storage tracks the unconsumed tail at amortised O(1).
template <typename T, typename Index>
void compact_consumed(std::vector<T>& items, Index& head) {
  if (head == 0 || 2 * head < items.size()) return;
  items.erase(items.begin(),
              items.begin() + static_cast<std::ptrdiff_t>(head));
  head = 0;
}

}  // namespace

HostTransport::HostTransport(const NetworkConfig& config, EventQueue* events,
                             const FlowTable& flows)
    : num_tors_(config.num_tors),
      prop_delay_ns_(config.propagation_delay_ns),
      base_rto_ns_(static_cast<Nanos>(config.data_fault.rto_epochs *
                                      static_cast<double>(
                                          config.epoch_length_ns()))),
      rto_cap_ns_(static_cast<Nanos>(config.data_fault.rto_cap_epochs *
                                     static_cast<double>(
                                         config.epoch_length_ns()))),
      backoff_(config.data_fault.rto_backoff),
      max_retries_(config.data_fault.max_retries),
      events_(events),
      flow_table_(flows),
      retx_(static_cast<std::size_t>(num_tors_) * num_tors_),
      retx_count_(static_cast<std::size_t>(num_tors_) * num_tors_, 0),
      retx_from_(static_cast<std::size_t>(num_tors_), 0),
      pair_listed_(static_cast<std::size_t>(num_tors_) * num_tors_, 0) {
  NEG_ASSERT(config.data_fault.enabled && config.data_fault.arq,
             "transport constructed with ARQ disabled");
  NEG_ASSERT(base_rto_ns_ > 0, "base RTO must be positive");
}

HostTransport::FlowState& HostTransport::acquire(std::int32_t flow) {
  NEG_ASSERT(flow >= 0, "negative flow index");
  const auto i = static_cast<std::size_t>(flow);
  if (i >= slot_.size()) slot_.resize(i + 1, kNoState);
  std::int32_t& slot = slot_[i];
  NEG_ASSERT(slot != kFinished, "a finished flow transmitted again");
  if (slot == kNoState) {
    if (free_slots_.empty()) {
      slot = static_cast<std::int32_t>(pool_.size());
      pool_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
  }
  return pool_[static_cast<std::size_t>(slot)];
}

void HostTransport::release_flow(std::int32_t flow) {
  std::int32_t& slot = slot_[static_cast<std::size_t>(flow)];
  FlowState& f = pool_[static_cast<std::size_t>(slot)];
  NEG_ASSERT(f.pending == 0 && f.units.empty(),
             "releasing a flow with units outstanding");
  f = FlowState{};
  free_slots_.push_back(slot);
  slot = kFinished;
}

void HostTransport::arm_timer(FlowState& f, std::int32_t flow, Nanos when) {
  events_->schedule_transport_timer(when, TransportTimerEvent{flow});
  f.timer_armed = true;
}

std::uint32_t HostTransport::on_transmit(std::int32_t flow, TorId src,
                                         TorId dst, Bytes bytes, Nanos now) {
  NEG_ASSERT(bytes > 0, "cannot transmit zero bytes");
  NEG_ASSERT(bytes <= std::numeric_limits<std::uint32_t>::max(),
             "an ARQ unit must fit a 32-bit byte count");
  FlowState& f = acquire(flow);
  if (f.src == kInvalidTor) {
    f.src = src;
    f.dst = dst;
    f.rto = base_rto_ns_;
  }
  NEG_ASSERT(f.src == src && f.dst == dst, "flow endpoints changed");
  const auto idx = static_cast<std::uint32_t>(f.end());
  NEG_ASSERT(idx < std::numeric_limits<std::uint32_t>::max(),
             "sequence numbers exhausted");
  // A fresh unit's in-flight record is its window slot: no side entry.
  f.units.push_back(Unit{now, static_cast<std::uint32_t>(bytes)});
  unresolved_bytes_ += bytes;
  if (!f.timer_armed) arm_timer(f, flow, now + f.rto);
  return idx + 1;
}

bool HostTransport::on_deliver(std::int32_t flow, std::uint32_t seq,
                               Bytes bytes, Nanos now) {
  NEG_ASSERT(seq > 0, "delivery without a sequence number");
  FlowState* fs = live_state(flow);
  const std::uint32_t idx = seq - 1;
  NEG_ASSERT(fs == nullptr || idx < fs->end(), "delivery for an unknown unit");
  // A finished flow's units are all released.
  Unit* u = fs == nullptr ? nullptr : fs->find(idx);
  // An ARQ unit is indivisible: a partial arrival means something split
  // a seq-carrying chunk in transit, which the conservation ledger
  // cannot represent.
  NEG_ASSERT(u == nullptr || bytes == Bytes{u->bytes},
             "partial delivery of an ARQ unit");
  if (u == nullptr || u->delivered_rx || u->state == kAbandoned) {
    // Duplicate (a spurious retransmission's copy, released or not) or a
    // copy of a unit the sender already gave up on: the receiver
    // discards it.
    ++spurious_retx_;
    return false;
  }
  FlowState& f = *fs;
  u->delivered_rx = true;
  unresolved_bytes_ -= bytes;
  delivered_bytes_ += bytes;
  while (f.cum_rx < f.end() && f.units[f.cum_rx - f.base].delivered_rx) {
    ++f.cum_rx;
  }
  const Nanos effective = now + prop_delay_ns_;
  NEG_ASSERT(acks_head_ == acks_.size() || acks_.back().effective <= effective,
             "ack effective times must be non-decreasing");
  compact_consumed(acks_, acks_head_);
  acks_.push_back(Ack{effective, flow, seq, f.cum_rx});
  return true;
}

bool HostTransport::resolve_ack(FlowState& f, std::uint32_t idx) {
  Unit* u = f.find(idx);
  if (u == nullptr) return false;  // released: acked long ago
  switch (u->state) {
    case kInFlight:
      u->state = kAcked;
      return true;
    case kRetxPending: {
      // Acked while waiting for a retransmit slot: the FIFO entry stays
      // behind as a stale record (skipped at pop); only counters move.
      u->state = kAcked;
      const std::size_t pair = pair_index(f.src, f.dst);
      --retx_count_[pair];
      --retx_from_[static_cast<std::size_t>(f.src)];
      --f.pending;
      retx_backlog_bytes_ -= u->bytes;
      return true;
    }
    case kAcked:
    case kAbandoned:
      return false;
  }
  return false;
}

void HostTransport::flush_acks(Nanos now) {
  while (acks_head_ < acks_.size() && acks_[acks_head_].effective <= now) {
    const Ack a = acks_[acks_head_++];
    // A flow finishes at the ack that covers its last unit, and every
    // later ack of it would be a duplicate, which is never queued.
    FlowState* fs = live_state(a.flow);
    NEG_ASSERT(fs != nullptr, "ack for a finished flow");
    FlowState& f = *fs;
    // Selective part, unless the cumulative part below covers the unit or
    // an earlier cumulative ack already resolved it (a unit below cum_tx
    // was delivered, so it is acked or released: nothing to resolve).
    const std::uint32_t idx = a.seq - 1;
    bool progress = idx >= std::max(f.cum_tx, a.cum) && resolve_ack(f, idx);
    // Cumulative part: everything below the receiver's contiguous
    // watermark is implicitly acked.
    for (std::uint32_t i = f.cum_tx; i < a.cum; ++i) {
      progress = resolve_ack(f, i) || progress;
    }
    f.cum_tx = std::max(f.cum_tx, a.cum);
    if (progress) {  // ack progress resets the backoff
      f.rto = base_rto_ns_;
      f.retries = 0;
    }
    release_acked(f);
    if (f.cum_tx == f.end() && flow_table_.done(a.flow)) {
      release_flow(a.flow);
    }
  }
}

void HostTransport::release_acked(FlowState& f) {
  const std::size_t acked = f.cum_tx - f.base;
  if (acked == f.units.size()) {
    // Fully acked: every side entry names a released unit, so the flow's
    // storage goes back to the allocator.
    f.base = f.cum_tx;
    std::vector<Unit>().swap(f.units);
    std::vector<ResentEntry>().swap(f.resent);
    f.resent_head = 0;
    return;
  }
  if (2 * acked < f.units.size()) return;
  f.units.erase(f.units.begin(),
                f.units.begin() + static_cast<std::ptrdiff_t>(acked));
  f.base = f.cum_tx;
  // The released units' side entries are stale for good (a re-sent
  // unit's sent_at only grows), so consuming them now instead of at the
  // next timer fire bounds `resent` whatever the timer cadence.
  prune_resent(f);
}

void HostTransport::prune_resent(FlowState& f) {
  while (f.resent_head < f.resent.size()) {
    const ResentEntry& e = f.resent[f.resent_head];
    const Unit* u = f.find(e.idx);
    if (u != nullptr && u->state == kInFlight && u->sent_at == e.sent_at) {
      return;
    }
    ++f.resent_head;
  }
}

bool HostTransport::inflight_head(FlowState& f, InflightHead* head) {
  // Stale records are stale for good (an acked, released or abandoned
  // unit never returns, and a queued unit comes back only through a new
  // side entry), so each cursor only moves forward.
  f.fresh_head = std::max(f.fresh_head, f.base);
  while (f.fresh_head < f.end()) {
    const Unit& u = f.units[f.fresh_head - f.base];
    if (u.state == kInFlight) break;
    ++f.fresh_head;
  }
  prune_resent(f);
  const bool fresh = f.fresh_head < f.end();
  if (f.resent_head < f.resent.size() &&
      (!fresh || f.resent[f.resent_head].stamp <= f.fresh_head)) {
    const ResentEntry& e = f.resent[f.resent_head];
    *head = InflightHead{e.idx, e.sent_at};
    return true;
  }
  if (!fresh) return false;
  *head = InflightHead{f.fresh_head,
                       f.units[f.fresh_head - f.base].sent_at};
  return true;
}

void HostTransport::queue_retx(FlowState& f, std::int32_t flow,
                               std::uint32_t idx) {
  Unit& u = *f.find(idx);
  u.state = kRetxPending;
  const std::size_t pair = pair_index(f.src, f.dst);
  RetxFifo& fifo = retx_[pair];
  compact_consumed(fifo.items, fifo.head);
  fifo.items.push_back(RetxEntry{flow, idx});
  if (retx_count_[pair]++ == 0 && !pair_listed_[pair]) {
    pair_listed_[pair] = 1;
    retx_pairs_.push_back(static_cast<std::int32_t>(pair));
  }
  ++retx_from_[static_cast<std::size_t>(f.src)];
  ++f.pending;
  retx_backlog_bytes_ += u.bytes;
}

void HostTransport::abandon_flow(FlowState& f) {
  const std::size_t pair = pair_index(f.src, f.dst);
  for (Unit& u : f.units) {
    if (u.state == kAcked || u.state == kAbandoned) continue;
    if (u.state == kRetxPending) {
      --retx_count_[pair];
      --retx_from_[static_cast<std::size_t>(f.src)];
      --f.pending;
      retx_backlog_bytes_ -= u.bytes;
    }
    if (u.delivered_rx) {
      // Delivered, ack still in flight: the unit is resolved as far as
      // the ledger cares; fold it into acked so the late ack is a no-op.
      u.state = kAcked;
      continue;
    }
    u.state = kAbandoned;
    unresolved_bytes_ -= u.bytes;
    abandoned_bytes_ += u.bytes;
    ++abandoned_units_;
  }
}

bool HostTransport::on_timer(std::int32_t flow, Nanos now) {
  if (FlowState* armed = live_state(flow)) armed->timer_armed = false;
  flush_acks(now);
  // A finished flow (possibly finished by this flush) has nothing in
  // flight.
  FlowState* fs = live_state(flow);
  if (fs == nullptr) return false;
  FlowState& f = *fs;
  InflightHead head;
  if (!inflight_head(f, &head)) return false;  // everything resolved
  const Nanos earliest = head.sent_at + f.rto;
  if (earliest > now) {
    // Stale wakeup: the deadline moved (ack progress or retransmission
    // since this timer was armed). Re-arm at the real deadline.
    arm_timer(f, flow, earliest);
    return false;
  }
  ++rto_fires_;
  if (f.rto >= rto_cap_ns_) ++max_backoff_reached_;
  // Escalate toward abandonment only when every earlier retransmission
  // has actually been attempted: an expiry with units still waiting in
  // the pair FIFO means the fabric never got to the repair (starved
  // behind another flow's debt or a downed link) — back off and re-queue,
  // but the fire proves nothing about loss.
  if (f.pending == 0 && ++f.retries > max_retries_) {
    abandon_flow(f);
    return false;
  }
  // Queueing a unit makes its record stale, so the next head is the next
  // live transmission.
  bool moved = false;
  while (inflight_head(f, &head)) {
    if (head.sent_at + f.rto > now) break;  // later units have not expired
    queue_retx(f, flow, head.idx);
    moved = true;
  }
  f.rto = std::min(
      rto_cap_ns_,
      static_cast<Nanos>(static_cast<double>(f.rto) * backoff_));
  if (inflight_head(f, &head)) arm_timer(f, flow, head.sent_at + f.rto);
  return moved;
}

HostTransport::RetxChunk HostTransport::take_retx(TorId src, TorId dst,
                                                  Nanos now) {
  const std::size_t pair = pair_index(src, dst);
  NEG_ASSERT(retx_count_[pair] > 0, "take_retx on a pair with no work");
  RetxFifo& fifo = retx_[pair];
  for (;;) {
    NEG_ASSERT(fifo.head < fifo.items.size(),
               "retx count says live entries but the FIFO is drained");
    const RetxEntry e = fifo.items[fifo.head++];
    FlowState* fs = live_state(e.flow);
    Unit* u = fs == nullptr ? nullptr : fs->find(e.idx);
    // Stale: resolved (possibly released, with its flow) while queued.
    if (u == nullptr || u->state != kRetxPending) continue;
    FlowState& f = *fs;
    --retx_count_[pair];
    --retx_from_[static_cast<std::size_t>(src)];
    --f.pending;
    retx_backlog_bytes_ -= u->bytes;
    // A unit's transmission times strictly grow, so only its newest
    // record can match sent_at.
    NEG_ASSERT(now > u->sent_at, "retransmission no later than the last send");
    u->state = kInFlight;
    u->sent_at = now;
    compact_consumed(f.resent, f.resent_head);
    f.resent.push_back(
        ResentEntry{e.idx, static_cast<std::uint32_t>(f.end()), now});
    retransmitted_bytes_ += u->bytes;
    if (!f.timer_armed) arm_timer(f, e.flow, now + f.rto);
    return RetxChunk{e.flow, f.dst, u->bytes, e.idx + 1};
  }
}

HostTransport::Footprint HostTransport::footprint() const {
  Footprint fp{pool_.size() - free_slots_.size(), 0, 0, acks_.size(), 0};
  for (const FlowState& f : pool_) {
    fp.units += f.units.size();
    fp.inflight += f.resent.size();
  }
  for (const RetxFifo& fifo : retx_) fp.retx += fifo.items.size();
  return fp;
}

}  // namespace negotiator
