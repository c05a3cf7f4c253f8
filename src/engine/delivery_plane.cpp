#include "engine/delivery_plane.h"

#include "common/assert.h"
#include "common/rng.h"
#include "stats/resilience_recorder.h"

namespace negotiator {

DeliveryPlane::DeliveryPlane(const NetworkConfig& config, EventQueue& events,
                             GoodputMeter& goodput, const LinkState& links,
                             ResilienceRecorder& resilience)
    : goodput_(goodput), links_(links), resilience_(resilience) {
  // The channel's stream derives from the run seed with a fixed salt, so
  // building it never shifts any other component's stream.
  if (config.data_fault.enabled) {
    data_ = std::make_unique<DataChannel>(
        config.data_fault,
        make_salted_stream(config.seed, kDataChannelSeedSalt));
    if (config.data_fault.arq) {
      transport_ = std::make_unique<HostTransport>(config, &events, flows_);
    }
    if (invariants_armed(config)) {
      auditor_ = std::make_unique<ConservationAuditor>(config.data_fault.arq);
    }
  }
  if (config.host_plane.enabled) {
    host_plane_ = std::make_unique<HostPlane>(
        config.num_tors, config.host_rate(), config.host_plane);
  }
}

void DeliveryPlane::flush(Nanos arrival) {
  if (build_.empty()) return;
  if (transport_) {
    // Receiver-side ARQ filter: only a unit's first arrival survives to
    // the effects below; duplicates and copies of abandoned units vanish.
    std::size_t keep = 0;
    for (const DeliveryRecord& r : build_) {
      if (transport_->on_deliver(static_cast<std::int32_t>(r.flow), r.seq,
                                 r.bytes, arrival)) {
        build_[keep++] = r;
      }
    }
    build_.resize(keep);
    if (build_.empty()) return;
  }
  const std::size_t n = build_.size();
  if (links_.failed_count() > 0) {
    Bytes degraded = 0;
    for (const DeliveryRecord& r : build_) degraded += r.bytes;
    resilience_.on_degraded_delivery(degraded);
  }
  flows_.credit_span(build_.data(), n, arrival);
  goodput_.record_delivery_span(build_.data(), n, arrival);
  if (host_plane_) {
    // Per-record order at the shared timestamp, so each receive buffer's
    // trajectory matches one inline call per packet.
    for (const DeliveryRecord& r : build_) {
      host_plane_->on_delivery(r.dst, r.bytes, arrival);
    }
  }
  deliveries_ += n;
  ++dispatches_;
  build_.clear();
}

void DeliveryPlane::audit(std::int64_t epoch, Bytes source_queued,
                          Bytes relay_parked) {
  ConservationLedger l;
  l.injected = injected_;
  l.source_queued = source_queued;
  l.delivered = flows_.total_delivered();
  if (transport_) {
    l.arq_unresolved = transport_->unresolved_bytes();
    l.arq_delivered = transport_->delivered_bytes();
    l.arq_abandoned = transport_->abandoned_bytes();
  } else {
    l.relay_parked = relay_parked;
    l.in_transit = transit_;
    l.dropped = data_->dropped_bytes();
    l.corrupted = data_->corrupted_bytes();
  }
  auditor_->check(epoch, l);
}

bool DeliveryPlane::on_timer(std::int32_t flow, Nanos now) {
  NEG_ASSERT(transport_ != nullptr, "transport timer without a transport");
  return transport_->on_timer(flow, now);
}

}  // namespace negotiator
