#include "oblivious/oblivious_scheduler.h"

#include "topo/predefined_schedule.h"

namespace negotiator {

ObliviousFabric::ObliviousFabric(const NetworkConfig& config,
                                 Nanos stats_window_ns)
    : FabricSim(config, stats_window_ns, /*relay=*/true),
      slot_ns_(config.epoch.guardband_ns + config.epoch.scheduled_slot_ns),
      spread_ptr_(static_cast<std::size_t>(config.num_tors), 0),
      busy_(config.num_tors),
      advertised_congested_(
          static_cast<std::size_t>(config.num_tors) * config.num_tors, 0),
      peers_believe_congested_(static_cast<std::size_t>(config.num_tors),
                               0) {
  const int n = config_.num_tors;
  const int ports = config_.ports_per_tor;
  const PredefinedSchedule rotor(topo_);
  cycle_slots_ = rotor.slots();
  conn_table_.assign(static_cast<std::size_t>(cycle_slots_) * n * ports,
                     SlotConn{kInvalidTor, 0, 0});
  for (int slot = 0; slot < cycle_slots_; ++slot) {
    for (TorId s = 0; s < n; ++s) {
      for (PortId p = 0; p < ports; ++p) {
        const TorId m = rotor.dst_of(s, p, slot, /*rotation=*/0);
        if (m == kInvalidTor) continue;
        const PortId rx = topo_.rx_port(s, p);
        conn_table_[(static_cast<std::size_t>(slot) * n + s) * ports + p] =
            SlotConn{m,
                     static_cast<std::uint32_t>(
                         links_.raw_index(s, p, LinkDirection::kEgress)),
                     static_cast<std::uint32_t>(
                         links_.raw_index(m, rx, LinkDirection::kIngress))};
      }
    }
  }
}

void ObliviousFabric::on_flow_arrival(const FlowArrivalEvent& e, Nanos now) {
  const Flow f = plane_.flows().flow(e.flow_index);
  Flow queued = f;
  queued.id = e.flow_index;  // queues carry the dense index
  tors_[static_cast<std::size_t>(f.src)].accept_flow(queued, now);
  busy_.insert(f.src);
  plane_.on_inject(f.size);
}

void ObliviousFabric::on_transport_timer(const TransportTimerEvent& e,
                                         Nanos now) {
  if (plane_.on_timer(e.flow_index, now)) {
    // Retransmit work keeps the unit's source in the dirty set until a
    // rotor connection towards its destination comes around.
    busy_.insert(host_transport()->flow_src(e.flow_index));
  }
}

TorId ObliviousFabric::next_spread_dst(TorId src) {
  const auto& active =
      tors_[static_cast<std::size_t>(src)].active_destinations();
  if (active.empty()) return kInvalidTor;
  TorId& ptr = spread_ptr_[static_cast<std::size_t>(src)];
  // Bitmap successor scan: this runs once per potential spread, i.e.
  // millions of times.
  const TorId d = active.next_member_after(ptr);
  ptr = d != kInvalidTor ? d : active.first_member();  // wrap around
  return ptr;
}

void ObliviousFabric::run_slot(std::int64_t global_slot) {
  advance_to(slot_start(global_slot));
  plane_.begin_epoch(now_);
  const Bytes payload = config_.scheduled_payload_bytes();
  const Nanos arrival =
      slot_start(global_slot) + slot_ns_ + config_.propagation_delay_ns;
  const int n = config_.num_tors;
  const int ports = config_.ports_per_tor;
  const int slot = static_cast<int>(global_slot % cycle_slots_);
  const bool healthy = links_.all_up();
  // Snapshot the dirty set: sources can go quiet mid-slot (queues drain),
  // and a conn of an already-quiet source replicates the dense scan's
  // no-op exactly. Nothing can *join* mid-slot — arrivals fired during
  // advance_to, and relay chunks land after the slot ends. Ascending order ==
  // the dense scan's (src, port) order restricted to the busy subset.
  busy_scratch_.assign(busy_.begin(), busy_.end());
  const SlotConn* const slot_base =
      conn_table_.data() + static_cast<std::size_t>(slot) * n * ports;
  for (const TorId s : busy_scratch_) {
    TorSwitch& tor = tors_[static_cast<std::size_t>(s)];
    RelayQueueSet& parked = relay_[static_cast<std::size_t>(s)];
    const SlotConn* const conns = slot_base + static_cast<std::size_t>(s) * ports;
    for (PortId p = 0; p < ports; ++p) {
      const SlotConn& c = conns[p];
      const TorId m = c.dst;
      if (m == kInvalidTor) continue;
      if (!healthy &&
          !(links_.up_raw(c.tx_link) && links_.up_raw(c.rx_link))) {
        continue;
      }
      // The connection's framing advertises the sender's relay occupancy
      // to the receiver (used to gate future spreading towards s). Only
      // the congested boolean is observable through room checks.
      const std::uint8_t cong = congested(s) ? 1 : 0;
      auto& advert = advertised_congested_[static_cast<std::size_t>(m) * n + s];
      if (advert != cong) {
        advert = cong;
        peers_believe_congested_[static_cast<std::size_t>(s)] +=
            cong ? 1 : -1;
      }
      // 0. A pending retransmission for (s, m) outranks everything the
      // slot could otherwise carry (selective repeat: the lost unit is
      // the pair's oldest debt). Retransmissions go direct — never back
      // through a relay queue.
      if (plane_.try_retransmit(s, m, now_)) continue;
      // 1. Second hop: deliver relayed data whose final destination is m.
      // The dequeue mutates the relay queue inline (congestion adverts
      // later this slot must see the drain); the delivery's downstream
      // effects ride the slot's staged span.
      if (const std::optional<RelayChunk> chunk =
              parked.dequeue_packet(m, payload)) {
        plane_.second_hop(*chunk, m);
        continue;
      }
      // 2. VLB spread: detour the next backlogged destination through m.
      //    When the round-robin pointer lands on m itself the data goes
      //    direct (the lucky 1/N case of uniform spreading).
      // Congestion control: no spreading into a full intermediate buffer —
      // the slot idles until m drains (pure VLB waits for credit; there is
      // no adaptive fall-back to direct transmission in the baseline).
      const bool room =
          advertised_congested_[static_cast<std::size_t>(s) * n + m] == 0;
      if (!room) continue;
      const TorId d = next_spread_dst(s);
      if (d == kInvalidTor) continue;
      if (d == m) {
        if (auto pkt = tor.dequeue_packet(m, payload)) {
          // The lucky 1/N direct case: a plain first-hop transmission.
          plane_.first_hop(static_cast<int>(pkt->flow), s, m, pkt->bytes,
                           now_);
        }
        continue;
      }
      if (auto pkt = tor.dequeue_packet(d, payload)) {
        // VLB leg 1 rides the lossy channel too; a chunk lost here never
        // reaches the intermediate (ARQ retransmits it direct later).
        const DeliveryPlane::RelayLeg leg = plane_.relay_leg(
            static_cast<int>(pkt->flow), s, d, pkt->bytes, now_);
        if (leg.delivered) {
          goodput_.record_relay_reception(m, pkt->bytes, arrival);
          relay_line_.append(
              RelayDelayLine::Chunk{m, d, pkt->flow, pkt->bytes, leg.seq});
        }
      }
    }
    update_busy(s);
  }
  // Close the slot: staged deliveries land as one span, and the slot's
  // relay chunks leave as one span of the delay line (a no-op when nothing
  // spread this slot).
  plane_.flush(arrival);
  relay_line_.close_span(arrival);
  // Cycle boundary == the oblivious fabric's audit epoch boundary.
  if (slot == cycle_slots_ - 1) {
    audit(global_slot / cycle_slots_);
  }
}

void ObliviousFabric::run_until(Nanos t) {
  while (slot_start(next_slot_) < t) {
    run_slot(next_slot_);
    ++next_slot_;
  }
  if (t > now_) advance_to(t);
}

}  // namespace negotiator
