// The end-host delivery path both fabrics share: everything between a
// packet leaving a ToR queue and its bytes landing at the destination's
// hosts. Each fabric keeps only its slot walk; the walk hands every
// transmission to the plane, which draws the lossy data channel's fate,
// stamps the ARQ sequence, stages the survivors on the slot's delivery
// span and lands the span once per slot (FlowTable credit, goodput,
// §3.6.5 host receive buffers). The plane also owns the conservation
// ledger and its auditor.
//
// Disabled ≡ never constructed: without data_fault the channel and the
// transport do not exist and make no draws, without host_plane there is no
// receive-buffer model, and every path is byte-identical to a build
// without them. The goldens pin this.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "core/data_channel.h"
#include "engine/conservation_auditor.h"
#include "engine/flow_table.h"
#include "stats/goodput_meter.h"
#include "topo/link_state.h"
#include "tor/host_plane.h"
#include "tor/host_transport.h"
#include "tor/relay_queue.h"

namespace negotiator {

class EventQueue;
class ResilienceRecorder;  // stats/resilience_recorder.h

/// Per-run invariant checks (MatchingValidator, ConservationAuditor) arm
/// on config.validate_matching, and always in debug/sanitizer builds.
inline bool invariants_armed(const NetworkConfig& config) {
#ifndef NDEBUG
  (void)config;
  return true;
#else
  return config.validate_matching;
#endif
}

class DeliveryPlane {
 public:
  /// `goodput`, `links` and `resilience` belong to the owning fabric and
  /// must outlive the plane; `events` carries the transport's retransmit
  /// timers.
  DeliveryPlane(const NetworkConfig& config, EventQueue& events,
                GoodputMeter& goodput, const LinkState& links,
                ResilienceRecorder& resilience);
  DeliveryPlane(const DeliveryPlane&) = delete;
  DeliveryPlane& operator=(const DeliveryPlane&) = delete;

  /// Epoch (negotiator) or rotor slot (oblivious) start: the channel
  /// samples its loss-window floor and the transport drains matured acks.
  void begin_epoch(Nanos now) {
    if (data_) data_->begin_epoch(now);
    if (transport_) transport_->flush_acks(now);
  }

  /// One fresh first-hop/direct packet: stamps the ARQ seq, draws the
  /// channel fate and stages the delivery when the chunk survives.
  void first_hop(int flow, TorId src, TorId dst, Bytes bytes, Nanos now) {
    std::uint32_t seq = 0;
    if (transport_) seq = transport_->on_transmit(flow, src, dst, bytes, now);
    if (data_ && !data_->classify(DataHopClass::kFirstHop, bytes).deliver) {
      return;  // lost in flight (ARQ will retransmit)
    }
    stage(flow, dst, bytes, seq);
  }

  /// One retransmission for pair (src, dst) if the transport has one
  /// queued there; returns true when the slot was consumed. A
  /// retransmission goes direct and redraws the channel like any first
  /// hop (the timer re-covers a second loss).
  bool try_retransmit(TorId src, TorId dst, Nanos now) {
    if (!transport_ || !transport_->has_retx(src, dst)) return false;
    const HostTransport::RetxChunk r = transport_->take_retx(src, dst, now);
    if (data_->classify(DataHopClass::kFirstHop, r.bytes).deliver) {
      stage(r.flow, dst, r.bytes, r.seq);
    }
    return true;
  }

  /// A relayed chunk's second hop, intermediate -> final destination.
  void second_hop(const RelayChunk& chunk, TorId dst) {
    if (data_ &&
        !data_->classify(DataHopClass::kSecondHop, chunk.bytes).deliver) {
      return;
    }
    stage(static_cast<int>(chunk.flow), dst, chunk.bytes, chunk.seq);
  }

  /// A relay leg's fate: whether the chunk reaches the intermediate, and
  /// the ARQ seq it carries there.
  struct RelayLeg {
    bool delivered;
    std::uint32_t seq;
  };
  /// VLB leg 1, source -> intermediate, of a chunk bound for `final_dst`.
  /// The ARQ unit is the chunk itself: a retransmission after a loss on
  /// either leg goes direct to `final_dst`. A surviving chunk is in
  /// transit until on_landed.
  RelayLeg relay_leg(int flow, TorId src, TorId final_dst, Bytes bytes,
                     Nanos now) {
    std::uint32_t seq = 0;
    if (transport_) {
      seq = transport_->on_transmit(flow, src, final_dst, bytes, now);
    }
    if (data_ && !data_->classify(DataHopClass::kRelay, bytes).deliver) {
      return {false, seq};
    }
    transit_ += bytes;
    return {true, seq};
  }

  /// Conservation ledger: bytes accepted into a source queue, and relay
  /// bytes landed at their intermediate (in transit -> parked).
  void on_inject(Bytes bytes) { injected_ += bytes; }
  void on_landed(Bytes bytes) { transit_ -= bytes; }

  /// Lands the staged span as one coalesced walk at the slot's shared
  /// `arrival`: the receiver-side ARQ filter, then the FlowTable credit,
  /// goodput and host-plane effects in staged order.
  void flush(Nanos arrival);

  /// Counts `packets` deliveries a fabric landed itself (the negotiator's
  /// per-segment drain) as one dispatch when any were delivered.
  void count(std::uint64_t packets) {
    deliveries_ += packets;
    if (packets > 0) ++dispatches_;
  }

  /// Checks the conservation identity at an epoch boundary; needs an
  /// armed auditor(). The fabric sums its own queues.
  void audit(std::int64_t epoch, Bytes source_queued, Bytes relay_parked);

  /// Transport timer expiry; true when the fire queued retransmit work.
  bool on_timer(std::int32_t flow, Nanos now);
  bool retx_pending_from(TorId src) const {
    return transport_ && transport_->has_retx_from(src);
  }
  template <class Fn>
  void for_each_retx_pair(Fn&& fn) {
    if (transport_) transport_->for_each_retx_pair(std::forward<Fn>(fn));
  }
  /// Every ARQ unit between first transmit and first arrival.
  Bytes unresolved_bytes() const {
    return transport_ ? transport_->unresolved_bytes() : 0;
  }

  void add_loss_window(Nanos start, Nanos end, double drop_floor) {
    if (data_) data_->add_loss_window(start, end, drop_floor);
  }

  FlowTable& flows() { return flows_; }
  const FlowTable& flows() const { return flows_; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t dispatches() const { return dispatches_; }
  const DataChannel* data_channel() const { return data_.get(); }
  const HostTransport* host_transport() const { return transport_.get(); }
  const ConservationAuditor* auditor() const { return auditor_.get(); }
  HostPlane* host_plane() const { return host_plane_.get(); }

 private:
  void stage(int flow, TorId dst, Bytes bytes, std::uint32_t seq) {
    build_.push_back(
        DeliveryRecord{static_cast<FlowId>(flow), dst, bytes, seq});
  }

  /// The only per-flow store, completion log included.
  FlowTable flows_;
  /// The slot's staged deliveries, in dequeue order.
  std::vector<DeliveryRecord> build_;
  std::unique_ptr<DataChannel> data_;
  std::unique_ptr<HostTransport> transport_;  // data_fault.arq only
  std::unique_ptr<ConservationAuditor> auditor_;
  std::unique_ptr<HostPlane> host_plane_;
  GoodputMeter& goodput_;
  const LinkState& links_;
  ResilienceRecorder& resilience_;
  Bytes injected_{0};
  Bytes transit_{0};  // relay chunks not yet landed
  std::uint64_t deliveries_{0};
  std::uint64_t dispatches_{0};
};

}  // namespace negotiator
