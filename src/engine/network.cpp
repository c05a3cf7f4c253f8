#include "engine/network.h"

#include <algorithm>

#include "common/assert.h"
#include "oblivious/oblivious_scheduler.h"

namespace negotiator {

// ---------------------------------------------------------------- FabricSim

namespace {

const NetworkConfig& validated(const NetworkConfig& config) {
  config.validate();
  return config;
}

}  // namespace

FabricSim::FabricSim(const NetworkConfig& config, Nanos stats_window_ns,
                     bool relay)
    : config_(validated(config)),
      goodput_(config.num_tors, stats_window_ns),
      links_(config.num_tors, config.ports_per_tor),
      plane_(config_, events_, goodput_, links_, resilience_),
      topo_(config_),
      resilience_(config_.num_tors, config_.ports_per_tor) {
  tors_.reserve(static_cast<std::size_t>(config_.num_tors));
  for (TorId t = 0; t < config_.num_tors; ++t) {
    tors_.emplace_back(t, config_.num_tors, config_.pias);
  }
  if (relay) {
    relay_.reserve(static_cast<std::size_t>(config_.num_tors));
    for (TorId t = 0; t < config_.num_tors; ++t) {
      relay_.emplace_back(config_.num_tors);
    }
  }
  events_.set_sink(this);
}

void FabricSim::add_flows(std::span<const Flow> flows) {
  const int num_tors = config_.num_tors;
  FlowTable& flow_table = plane_.flows();
  flow_table.reserve(flow_table.size() + flows.size());
  events_.reserve_flow_arrivals(flows.size());
  for (const Flow& f : flows) {
    NEG_ASSERT(f.arrival >= now_, "flow arrives in the past");
    NEG_ASSERT(f.src >= 0 && f.src < num_tors && f.dst >= 0 &&
                   f.dst < num_tors,
               "flow endpoints out of range");
    events_.append_flow_arrival(f.arrival, flow_table.add(f));
  }
  events_.commit_flow_arrivals();
}

Bytes FabricSim::total_backlog() const {
  Bytes total = plane_.unresolved_bytes();
  for (const TorSwitch& t : tors_) total += t.total_pending();
  for (const RelayQueueSet& r : relay_) total += r.total_bytes();
  return total;
}

void FabricSim::audit(std::int64_t epoch) {
  if (plane_.auditor() == nullptr) return;
  Bytes queued = 0;
  for (const TorSwitch& t : tors_) queued += t.total_pending();
  Bytes parked = 0;
  for (const RelayQueueSet& r : relay_) parked += r.total_bytes();
  plane_.audit(epoch, queued, parked);
}

void FabricSim::advance_to(Nanos t) {
  NEG_ASSERT(t >= now_, "time must be monotonic");
  events_.run_until(t);
  now_ = t;
  relay_line_.land_until(t, [this](const RelayDelayLine::Chunk& c) {
    relay_[static_cast<std::size_t>(c.intermediate)].enqueue(
        c.final_dst, c.flow, c.bytes, c.seq);
    on_relay_landed(c.intermediate);
    plane_.on_landed(c.bytes);
  });
}

void FabricSim::on_link_toggle(const LinkToggleEvent& e, Nanos now) {
  if (e.fail) {
    links_.fail(e.tor, e.port, e.dir);
  } else {
    links_.repair(e.tor, e.port, e.dir);
  }
  resilience_.on_link_toggle(now, e.tor, e.port, e.dir, e.fail);
}

// --------------------------------------------------------- NegotiatorFabric

NegotiatorFabric::NegotiatorFabric(const NetworkConfig& config,
                                   Nanos stats_window_ns)
    : FabricSim(config, stats_window_ns,
                config.scheduler == SchedulerKind::kNegotiatorSelectiveRelay),
      schedule_(topo_),
      timing_(config),
      relay_enabled_(!relay_.empty()),
      faults_(config.num_tors, config.ports_per_tor),
      arrived_(static_cast<std::size_t>(config.num_tors) * config.num_tors,
               0),
      predef_marks_(static_cast<std::size_t>(schedule_.slots()),
                    ActiveSet(config.num_tors * config.ports_per_tor)),
      active_sources_(config.num_tors),
      relay_active_(config.num_tors) {
  Rng rng(config_.seed);
  if (host_plane()) {
    pause_advertised_.assign(static_cast<std::size_t>(config_.num_tors),
                             false);
  }
  scheduler_ = make_negotiator_scheduler(config_, topo_, rng.fork());

  // Lossy control plane: the channel's stream derives from the run seed
  // with a fixed salt, NOT from the fork chain above — forking would
  // advance `rng` and shift the scheduler's stream, breaking every
  // loss-free golden. Disabled -> never constructed -> zero draws.
  if (config_.control_fault.enabled) {
    control_ = std::make_unique<ControlChannel>(
        config_.control_fault,
        make_salted_stream(config_.seed, kControlChannelSeedSalt));
    scheduler_->set_control_channel(control_.get());
    if (config_.control_fault.fallback) {
      fb_tx_stamp_.assign(static_cast<std::size_t>(config_.num_tors) *
                              config_.ports_per_tor,
                          -1);
      fb_rx_stamp_.assign(fb_tx_stamp_.size(), -1);
      fb_starved_.assign(static_cast<std::size_t>(config_.num_tors), 0);
    }
  }
  if (invariants_armed(config_)) {
    validator_ = std::make_unique<MatchingValidator>(topo_);
  }
}

void NegotiatorFabric::on_flow_arrival(const FlowArrivalEvent& e, Nanos now) {
  const Flow f = plane_.flows().flow(e.flow_index);
  // Queues carry the dense FlowTable index; the external id only appears
  // in reported samples.
  Flow queued = f;
  queued.id = e.flow_index;
  tors_[static_cast<std::size_t>(f.src)].accept_flow(queued, now);
  active_sources_.insert(f.src);
  plane_.on_inject(f.size);
  arrived_[static_cast<std::size_t>(f.src) * config_.num_tors + f.dst] +=
      f.size;
  // A flow landing mid-predefined-phase can piggyback on its pair's
  // not-yet-passed connection(s) this very epoch, exactly like the dense
  // scan would have picked it up.
  if (in_predefined_phase_ && config_.piggyback) {
    gather_predefined_pair(f.src, f.dst);
  }
}

void NegotiatorFabric::schedule_control_brownout(Nanos start, Nanos end,
                                                 double drop_floor) {
  // Tolerated without a channel (a loss-free fabric simply has no control
  // plane to brown out) so scenarios with brownout specs install cleanly
  // on any fabric, mirroring the base-class default.
  if (control_) control_->add_brownout(start, end, drop_floor);
}

void NegotiatorFabric::on_transport_timer(const TransportTimerEvent& e,
                                          Nanos now) {
  if (plane_.on_timer(e.flow_index, now) && in_predefined_phase_) {
    // The fire moved units into a retransmit FIFO mid-predefined-phase:
    // re-gather the pair so a not-yet-passed connection can serve it this
    // very epoch (mirrors the mid-phase flow-arrival hook above).
    gather_predefined_pair(host_transport()->flow_src(e.flow_index),
                           host_transport()->flow_dst(e.flow_index));
  }
}

void NegotiatorFabric::run_until(Nanos t) {
  while (timing_.epoch_start(epoch_) < t) run_epoch();
  // The last epoch may have carried the clock past t already.
  if (t > now_) advance_to(t);
}

void NegotiatorFabric::run_epoch() {
  advance_to(timing_.epoch_start(epoch_));
  if (HostPlane* hosts = host_plane()) {
    // Pause bits ride the previous predefined phase's dummy messages; the
    // epoch-start snapshot is what senders know this epoch.
    for (TorId t = 0; t < config_.num_tors; ++t) {
      pause_advertised_[static_cast<std::size_t>(t)] =
          hosts->rx_paused(t, now_);
    }
  }
  if (control_) control_->begin_epoch(now_);
  plane_.begin_epoch(now_);
  scheduler_->begin_epoch(epoch_, now_, *this, faults_);
  if (validator_) {
    NEG_ASSERT(validator_->validate(scheduler_->matches(), epoch_),
               validator_->error().c_str());
  }

  // Match ratio (Fig. 14): the accepts of epoch e answer the grants issued
  // in epoch e-1.
  if (prev_epoch_grants_ > 0) {
    ratio_series_.push_back(static_cast<double>(scheduler_->epoch_accepts()) /
                            static_cast<double>(prev_epoch_grants_));
  }
  if (control_) {
    resilience_.on_control_match(prev_epoch_grants_,
                                 scheduler_->epoch_accepts());
  }
  prev_epoch_grants_ = scheduler_->epoch_grants();

  run_predefined_phase();
  run_scheduled_phase();
  faults_.end_epoch(resilience_, now_);
  audit(epoch_);
  ++epoch_;
}

void NegotiatorFabric::gather_predefined_pair(TorId src, TorId dst) {
  const int row = src * config_.ports_per_tor;
  schedule_.for_each_pair_connection(
      src, dst, predef_rotation_,
      [&](const PredefinedSchedule::Connection& conn) {
        if (conn.slot < predef_cursor_) return;  // this slot already ran
        predef_marks_[static_cast<std::size_t>(conn.slot)].insert(
            row + conn.tx_port);
      });
}

void NegotiatorFabric::visit_predefined_conn(TorId src, PortId tx, TorId dst,
                                             bool healthy) {
  ++predefined_visits_;
  // A healthy slot has every link up and a quiescent fault plane, so only
  // an unhealthy visit needs the rx port and the link health bits.
  bool up = true;
  PortId rx = kInvalidPort;
  if (!healthy) {
    rx = topo_.rx_port(src, tx);
    up = links_.up_raw(links_.raw_index(src, tx, LinkDirection::kEgress)) &&
         links_.up_raw(links_.raw_index(dst, rx, LinkDirection::kIngress));
  }
  scheduler_->deliver_pair(src, dst, up);
  if (!healthy) {
    faults_.observe_ingress(dst, rx, up);
    faults_.observe_egress(src, tx, up);
  }
  // Bitmap membership == "queue non-empty": one bit read instead of a
  // pointer chase into the per-destination queue.
  TorSwitch& tor = tors_[static_cast<std::size_t>(src)];
  // §3.6.5: withhold data towards a paused receiver.
  const bool paused =
      host_plane() && pause_advertised_[static_cast<std::size_t>(dst)];
  // Retransmissions outrank fresh piggyback data for the pair's slot
  // (selective repeat: the oldest lost unit is the flow's head of line).
  if (up && !paused && plane_.try_retransmit(src, dst, now_)) {
    return;  // slot consumed by the retransmission
  }
  if (!config_.piggyback || !tor.active_destinations().contains(dst) ||
      paused) {
    return;
  }
  if (up) {
    auto pkt = tor.dequeue_packet(dst, timing_.piggyback_payload_bytes());
    NEG_ASSERT(pkt.has_value(), "pending queue yielded no packet");
    ++piggyback_packets_;
    sync_source_activity(src);
    plane_.first_hop(static_cast<int>(pkt->flow), src, dst, pkt->bytes, now_);
  } else if (!faults_.tx_excluded(src, tx) && !faults_.rx_excluded(dst, rx)) {
    // Undetected failure: the packet is transmitted into a dark fibre
    // and retransmitted by the upper layer — model as a wasted slot
    // with the bytes back at the queue head.
    auto pkt = tor.dequeue_packet(dst, timing_.piggyback_payload_bytes());
    if (pkt) {
      tor.requeue_front(dst, *pkt);
      resilience_.on_blackholed(pkt->bytes);
    }
  }
}

void NegotiatorFabric::run_predefined_slot_sparse(
    int slot, const PredefinedSchedule::SlotRule& rule) {
  ActiveSet& marks = predef_marks_[static_cast<std::size_t>(slot)];
  if (marks.empty()) return;
  const int ports = config_.ports_per_tor;
  for (const int key : marks) {
    const TorId src = key / ports;
    const PortId tx = key - src * ports;
    visit_predefined_conn(src, tx, schedule_.dst_of(rule, src, tx),
                          /*healthy=*/true);
  }
  marks.clear();
}

void NegotiatorFabric::run_predefined_slot_dense(
    const PredefinedSchedule::SlotRule& rule) {
  // Unhealthy slot: the fault detector must observe every connection, so
  // resolve the full N×P slot on the fly (this path only runs while links
  // are down or the fault plane is settling).
  const int n = config_.num_tors;
  const int ports = config_.ports_per_tor;
  for (TorId s = 0; s < n; ++s) {
    for (PortId p = 0; p < ports; ++p) {
      const TorId d = schedule_.dst_of(rule, s, p);
      if (d == kInvalidTor) continue;
      visit_predefined_conn(s, p, d, /*healthy=*/false);
    }
  }
}

void NegotiatorFabric::run_predefined_phase() {
  // Stride-17 rotation: with 16 slots per port, a +1 step would keep a
  // pair on the same physical link for 16 consecutive epochs, so a failed
  // link would black the pair out for long stretches. A co-prime stride
  // moves every pair to a different link every epoch (§3.6.1: "a pair of
  // ToRs [exchanges] scheduling messages through multiple port-to-port
  // links ... in subsequent epochs").
  predef_rotation_ =
      config_.rotate_predefined_rule
          ? static_cast<int>((epoch_ * 17) & 0x3fffffff)
          : 0;

  // Gather the epoch's interesting pairs: control messages first, then
  // piggyback-data pairs. Cost is O(messages + active pairs), not O(N^2).
  // Every slot's marks are empty here: the previous phase cleared each
  // slot it ran.
  predef_cursor_ = 0;
  in_predefined_phase_ = true;
  for (const auto& [from, to] : scheduler_->epoch_out_pairs()) {
    gather_predefined_pair(from, to);
  }
  if (config_.piggyback) {
    for (const TorId s : active_sources_) {
      const TorSwitch& tor = tors_[static_cast<std::size_t>(s)];
      for (const TorId d : tor.active_destinations()) {
        gather_predefined_pair(s, d);
      }
    }
  }
  // Pairs with retransmit work ride predefined connections even when
  // piggyback is off — a retransmission is owed a slot regardless of how
  // the original unit was transmitted.
  plane_.for_each_retx_pair(
      [this](TorId s, TorId d) { gather_predefined_pair(s, d); });

  for (int slot = 0; slot < timing_.predefined_slots(); ++slot) {
    predef_cursor_ = slot;
    advance_to(timing_.predefined_slot_start(epoch_, slot));
    const Nanos data_end = timing_.predefined_slot_data_end(epoch_, slot);
    const PredefinedSchedule::SlotRule rule =
        schedule_.slot_rule(slot, predef_rotation_);
    // A slot's link events fired during advance_to, so health is stable
    // within the slot: on an all-up fabric with a quiescent fault plane,
    // per-pair health reads and all-healthy observations are skipped (see
    // FaultPlane::quiescent()).
    if (links_.all_up() && faults_.quiescent()) {
      run_predefined_slot_sparse(slot, rule);
    } else {
      // The dense scan visits every marked connection anyway; drop the
      // marks so none leaks into the next epoch.
      predef_marks_[static_cast<std::size_t>(slot)].clear();
      run_predefined_slot_dense(rule);
    }
    // Close the slot: every piggyback delivery staged above shares this
    // arrival time, so the whole slot lands as one span.
    plane_.flush(data_end + config_.propagation_delay_ns);
  }
  in_predefined_phase_ = false;
}

void NegotiatorFabric::prepare_fallback_epoch() {
  const int ports = config_.ports_per_tor;
  for (const ActiveMatch& a : sched_matches_) {
    fb_tx_stamp_[static_cast<std::size_t>(a.m.src) * ports + a.m.tx_port] =
        epoch_;
    fb_rx_stamp_[static_cast<std::size_t>(a.m.dst) * ports + a.m.rx_port] =
        epoch_;
  }
  // Candidate sources: active (pending direct data) but matched on no tx
  // port for kFallbackStarvationEpochs consecutive epochs. A one-epoch gap
  // is normal stateless-scheduling slack — rescuing it would steal the
  // head-of-line bytes the next epoch's grant is about to carry and waste
  // that grant on a drained queue. Persistent starvation is the control-
  // loss signature the fallback exists for. Ascending, so the per-slot
  // spread order is deterministic.
  fb_sources_.clear();
  for (TorId s = 0; s < config_.num_tors; ++s) {
    bool matched = false;
    for (PortId p = 0; p < ports; ++p) {
      if (fb_tx_stamp_[static_cast<std::size_t>(s) * ports + p] == epoch_) {
        matched = true;
        break;
      }
    }
    auto& starved = fb_starved_[static_cast<std::size_t>(s)];
    if (!matched && active_sources_.contains(s)) {
      ++starved;
    } else {
      starved = 0;
    }
    if (starved >= kFallbackStarvationEpochs) fb_sources_.push_back(s);
  }
}

void NegotiatorFabric::run_fallback_slot() {
  const Bytes payload = timing_.scheduled_payload_bytes();
  const int ports = config_.ports_per_tor;
  // The rotor rule for a fixed (slot, rotation) is a port-to-port
  // matching, so fallback senders never collide with each other; the
  // epoch stamps exclude the ports real matches booked.
  const PredefinedSchedule::SlotRule rule = schedule_.slot_rule(
      static_cast<int>(sched_slot_counter_ % schedule_.slots()),
      predef_rotation_);
  const bool healthy = links_.all_up();
  bool sent = false;
  for (const TorId s : fb_sources_) {
    TorSwitch& tor = tors_[static_cast<std::size_t>(s)];
    if (tor.active_destinations().empty()) continue;  // drained mid-phase
    for (PortId p = 0; p < ports; ++p) {
      if (fb_tx_stamp_[static_cast<std::size_t>(s) * ports + p] == epoch_) {
        continue;
      }
      const TorId d = schedule_.dst_of(rule, s, p);
      if (d == kInvalidTor) continue;
      const PortId rx = topo_.rx_port(s, p);
      if (fb_rx_stamp_[static_cast<std::size_t>(d) * ports + rx] == epoch_) {
        continue;
      }
      if (!tor.active_destinations().contains(d)) continue;
      if (host_plane() && pause_advertised_[static_cast<std::size_t>(d)]) {
        continue;  // §3.6.5: withhold data towards a paused receiver
      }
      if (!healthy &&
          !(links_.up_raw(links_.raw_index(s, p, LinkDirection::kEgress)) &&
            links_.up_raw(
                links_.raw_index(d, rx, LinkDirection::kIngress)))) {
        continue;
      }
      auto pkt = tor.dequeue_packet(d, payload);
      NEG_ASSERT(pkt.has_value(), "pending queue yielded no packet");
      sync_source_activity(s);
      plane_.first_hop(static_cast<int>(pkt->flow), s, d, pkt->bytes, now_);
      fallback_bytes_ += pkt->bytes;
      sent = true;
    }
  }
  if (sent) ++degraded_slots_;
}

void NegotiatorFabric::run_scheduled_phase() {
  sched_matches_.clear();
  sched_matches_.reserve(scheduler_->matches().size());
  for (const Match& m : scheduler_->matches()) {
    sched_matches_.push_back(
        ActiveMatch{m, m.relay ? m.relay_volume : 0, /*drained_at=*/-1});
  }
  total_matches_ += static_cast<std::int64_t>(sched_matches_.size());
  match_slots_offered_ += static_cast<std::int64_t>(sched_matches_.size()) *
                          timing_.scheduled_slots();

  // The per-segment drain needs every (src, dst) pair independent of every
  // other for the whole phase. Lossy data and ARQ draw and retransmit
  // across pairs in visit order, relay matches share relay queues, the
  // fallback shares free ports and the host plane shares receive buffers,
  // so each keeps the per-slot walk. So does an epoch in which a link is
  // down or a link toggle or timer fires before the last slot.
  const int slots = timing_.scheduled_slots();
  if (slots > 0 && !data_channel() && !relay_enabled_ && !host_plane() &&
      !(control_ && config_.control_fault.fallback)) {
    advance_to(timing_.scheduled_slot_start(epoch_, 0));
    if (links_.all_up() &&
        events_.next_non_arrival_time() >
            timing_.scheduled_slot_start(epoch_, slots - 1)) {
      drain_scheduled_phase();
      return;
    }
  }
  run_scheduled_slots();
}

void NegotiatorFabric::drain_scheduled_phase() {
  const int slots = timing_.scheduled_slots();
  const auto n = static_cast<std::uint64_t>(config_.num_tors);
  ++drain_epochs_;

  // Group the matches by (src, dst), members in ascending match index.
  drain_order_.clear();
  for (std::size_t i = 0; i < sched_matches_.size(); ++i) {
    const Match& m = sched_matches_[i].m;
    drain_order_.push_back(
        (static_cast<std::uint64_t>(m.src) * n +
         static_cast<std::uint64_t>(m.dst)) << 32 | i);
  }
  std::sort(drain_order_.begin(), drain_order_.end());
  drain_pairs_.clear();
  for (std::size_t k = 0; k < drain_order_.size(); ++k) {
    const auto pair = static_cast<std::uint32_t>(drain_order_[k] >> 32);
    if (drain_pairs_.empty() || drain_pairs_.back().pair != pair) {
      drain_pairs_.push_back(
          DrainPair{pair, static_cast<std::uint32_t>(k), 0, false});
    }
    ++drain_pairs_.back().members;
  }

  // A pair is dirty when one of its flows lands before the last slot
  // starts: its queue changes mid-phase, so it drains slot by slot.
  events_.for_each_arrival_until(
      timing_.scheduled_slot_start(epoch_, slots - 1),
      [this, n](std::int32_t flow_index) {
        const Flow f = plane_.flows().flow(flow_index);
        const auto pair = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(f.src) * n +
            static_cast<std::uint64_t>(f.dst));
        const auto it = std::lower_bound(
            drain_pairs_.begin(), drain_pairs_.end(), pair,
            [](const DrainPair& p, std::uint32_t key) { return p.pair < key; });
        if (it != drain_pairs_.end() && it->pair == pair) it->dirty = true;
      });

  // Packets per slot as a difference array, summed once after the drain.
  drain_slot_packets_.assign(static_cast<std::size_t>(slots) + 1, 0);
  // Slots whose arrivals fall in one goodput bucket form a run;
  // drain_bucket_end_[slot] is the first slot past slot's run.
  drain_bucket_end_.resize(static_cast<std::size_t>(slots));
  for (int slot = slots - 1; slot >= 0; --slot) {
    const bool joins_next =
        slot + 1 < slots && goodput_.bucket(scheduled_arrival(slot)) ==
                                goodput_.bucket(scheduled_arrival(slot + 1));
    drain_bucket_end_[static_cast<std::size_t>(slot)] =
        joins_next ? drain_bucket_end_[static_cast<std::size_t>(slot) + 1]
                   : slot + 1;
  }
  drain_completions_.clear();
  std::size_t dirty = 0;
  for (const DrainPair& p : drain_pairs_) {
    if (p.dirty) {
      ++dirty;
    } else {
      drain_pair(p, 0, slots);
    }
  }
  drain_clean_pairs_ += static_cast<std::int64_t>(drain_pairs_.size() - dirty);
  drain_dirty_pairs_ += static_cast<std::int64_t>(dirty);
  // Dirty pairs follow the clock, so each slot's arrivals land before that
  // slot's draw exactly as in the per-slot walk.
  for (int slot = 0; slot < slots; ++slot) {
    advance_to(timing_.scheduled_slot_start(epoch_, slot));
    if (dirty == 0) continue;
    for (const DrainPair& p : drain_pairs_) {
      if (p.dirty) drain_pair(p, slot, slot + 1);
    }
  }

  // Completions land in (slot, match index) order, as the per-slot walk's
  // slot flushes log them; each slot that delivered is one dispatch.
  std::sort(drain_completions_.begin(), drain_completions_.end(),
            [](const DrainCompletion& a, const DrainCompletion& b) {
              return a.order < b.order;
            });
  for (const DrainCompletion& c : drain_completions_) {
    plane_.flows().log_completion(
        c.flow, scheduled_arrival(static_cast<int>(c.order >> 32)));
  }
  std::int64_t packets = 0;
  for (int slot = 0; slot < slots; ++slot) {
    packets += drain_slot_packets_[static_cast<std::size_t>(slot)];
    plane_.count(static_cast<std::uint64_t>(packets));
    match_slots_used_ += packets;
  }
}

void NegotiatorFabric::drain_pair(const DrainPair& p, int first_slot,
                                  int end_slot) {
  const auto n = static_cast<std::uint32_t>(config_.num_tors);
  const auto src = static_cast<TorId>(p.pair / n);
  const auto dst = static_cast<TorId>(p.pair % n);
  const Bytes payload = timing_.scheduled_payload_bytes();
  TorSwitch& tor = tors_[static_cast<std::size_t>(src)];
  // Packet j rides slot first_slot + j / m on member j % m. `booked` holds
  // the bytes bound for the goodput bucket of `bucket_slot`, whose slots
  // carry the packets before `edge`.
  const std::uint32_t m = p.members;
  const auto budget = static_cast<std::uint32_t>(end_slot - first_slot) * m;
  const auto edge_of = [&](int slot) {
    return static_cast<std::uint32_t>(
               drain_bucket_end_[static_cast<std::size_t>(slot)] -
               first_slot) * m;
  };
  int bucket_slot = first_slot;
  std::uint32_t edge = edge_of(bucket_slot);
  std::uint32_t j = 0;
  Bytes booked = 0;
  while (j < budget) {
    const PacketRun run = tor.take_run(dst, payload, budget - j);
    if (run.packets == 0) break;
    const std::uint32_t end = j + run.packets;
    if (plane_.flows().credit_unlogged(static_cast<int>(run.flow),
                                       run.bytes)) {
      const std::uint32_t last = end - 1;
      const int slot = first_slot + static_cast<int>(last / m);
      const auto match = static_cast<std::uint32_t>(
          drain_order_[p.first + last % m]);
      drain_completions_.push_back(DrainCompletion{
          static_cast<std::uint64_t>(slot) << 32 | match,
          static_cast<int>(run.flow)});
    }
    // A run that crosses the edge books its full packets before it in the
    // current bucket; the rest, short last packet included, goes to the
    // bucket of the run's last packet.
    Bytes rest = run.bytes;
    while (end > edge) {
      const Bytes full = static_cast<Bytes>(edge - j) * payload;
      goodput_.record_delivery(dst, booked + full,
                               scheduled_arrival(bucket_slot));
      rest -= full;
      booked = 0;
      j = edge;
      bucket_slot = first_slot + static_cast<int>(edge / m);
      edge = edge_of(bucket_slot);
    }
    booked += rest;
    j = end;
  }
  if (j == 0) return;
  goodput_.record_delivery(dst, booked, scheduled_arrival(bucket_slot));
  // The first j / m slots carry m packets each, the next one j % m.
  const auto full_end = static_cast<std::size_t>(first_slot) + j / m;
  drain_slot_packets_[static_cast<std::size_t>(first_slot)] += m;
  drain_slot_packets_[full_end] -= m;
  if (j % m != 0) {
    drain_slot_packets_[full_end] += j % m;
    drain_slot_packets_[full_end + 1] -= j % m;
  }
  sync_source_activity(src);
}

void NegotiatorFabric::run_scheduled_slots() {
  const Bytes payload = timing_.scheduled_payload_bytes();
  const Nanos prop = config_.propagation_delay_ns;
  const auto n = static_cast<std::size_t>(config_.num_tors);

  const bool fallback =
      control_ != nullptr && config_.control_fault.fallback;
  if (fallback) prepare_fallback_epoch();

  for (int slot = 0; slot < timing_.scheduled_slots(); ++slot) {
    advance_to(timing_.scheduled_slot_start(epoch_, slot));
    const Nanos arrival = timing_.scheduled_slot_end(epoch_, slot) + prop;
    const bool healthy = links_.all_up();
    for (ActiveMatch& a : sched_matches_) {
      const Match& m = a.m;
      // A drained match sleeps until a flow for its pair arrives: arrived_
      // only grows, so a mark it has outgrown never matches again.
      const Bytes arrived =
          arrived_[static_cast<std::size_t>(m.src) * n + m.dst];
      if (a.drained_at == arrived) continue;
      TorSwitch& tor = tors_[static_cast<std::size_t>(m.src)];
      if (!healthy &&
          !(links_.up_raw(links_.raw_index(m.src, m.tx_port,
                                           LinkDirection::kEgress)) &&
            links_.up_raw(links_.raw_index(m.dst, m.rx_port,
                                           LinkDirection::kIngress)))) {
        continue;
      }
      // 0. A pending retransmission for the matched pair outranks fresh
      // data (selective repeat: the lost unit is the pair's oldest debt).
      if (plane_.try_retransmit(m.src, m.dst, now_)) {
        ++match_slots_used_;
        continue;
      }
      // 1. Direct data for the matched destination. The pending check is a
      // plain counter read — most slots of an over-scheduled match find a
      // drained queue (§3.5), and such a match is marked until an arrival
      // for its pair refills it.
      if (tor.active_destinations().contains(m.dst)) {
        auto pkt = tor.dequeue_packet(m.dst, payload);
        NEG_ASSERT(pkt.has_value(), "pending queue yielded no packet");
        ++match_slots_used_;
        sync_source_activity(m.src);
        plane_.first_hop(static_cast<int>(pkt->flow), m.src, m.dst,
                         pkt->bytes, now_);
        continue;
      }
      // Relay-enabled fabrics never mark a match drained: parked
      // second-hop data refills a pair without a flow arrival.
      if (!relay_enabled_) {
        a.drained_at = arrived;
        continue;
      }
      // 2. Second-hop relayed data parked at this ToR for the destination.
      // The dequeue keeps the relay queue live (same-slot reads see the
      // drain) while the delivery effects ride the slot's span.
      if (const std::optional<RelayChunk> chunk =
              relay_[static_cast<std::size_t>(m.src)].dequeue_packet(
                  m.dst, payload)) {
        sync_relay_activity(m.src);
        plane_.second_hop(*chunk, m.dst);
        continue;
      }
      // 3. First-hop relay: push elephant bytes towards the intermediate.
      if (m.relay && a.relay_remaining > 0) {
        const Bytes cap = std::min(payload, a.relay_remaining);
        if (auto pkt = tor.dequeue_elephant_packet(m.relay_final_dst, cap)) {
          a.relay_remaining -= pkt->bytes;
          sync_source_activity(m.src);
          const DeliveryPlane::RelayLeg leg =
              plane_.relay_leg(static_cast<int>(pkt->flow), m.src,
                               m.relay_final_dst, pkt->bytes, now_);
          if (leg.delivered) {
            goodput_.record_relay_reception(m.dst, pkt->bytes, arrival);
            relay_line_.append(RelayDelayLine::Chunk{
                m.dst, m.relay_final_dst, pkt->flow, pkt->bytes, leg.seq});
          }
        }
      }
      // Otherwise the link idles this slot: the cost of stateless
      // scheduling when the queue emptied before the accept (§3.5).
    }
    // Graceful degradation: unmatched sources spread via the rotor rule
    // after the matched traffic of the slot, sharing its delivery span.
    if (fallback) {
      run_fallback_slot();
      ++sched_slot_counter_;
    }
    // Close the slot: staged deliveries land as one span, and the slot's
    // relay chunks leave as one span of the delay line.
    plane_.flush(arrival);
    relay_line_.close_span(arrival);
  }
}

// DemandView --------------------------------------------------------------

Bytes NegotiatorFabric::pending_bytes(TorId src, TorId dst) const {
  return tors_[static_cast<std::size_t>(src)].pending_to(dst);
}

Bytes NegotiatorFabric::elephant_bytes(TorId src, TorId dst) const {
  const TorSwitch& tor = tors_[static_cast<std::size_t>(src)];
  return tor.bytes_at_level(dst, tor.levels() - 1);
}

Nanos NegotiatorFabric::weighted_hol_delay(TorId src, TorId dst, Nanos now,
                                           double alpha) const {
  return tors_[static_cast<std::size_t>(src)].weighted_hol_delay(dst, now,
                                                                 alpha);
}

Nanos NegotiatorFabric::oldest_hol_enqueue(TorId src, TorId dst) const {
  return tors_[static_cast<std::size_t>(src)].oldest_hol_enqueue(dst);
}

Bytes NegotiatorFabric::cumulative_arrived(TorId src, TorId dst) const {
  return arrived_[static_cast<std::size_t>(src) * config_.num_tors + dst];
}

Bytes NegotiatorFabric::relay_pending(TorId tor, TorId final_dst) const {
  if (!relay_enabled_) return 0;
  return relay_[static_cast<std::size_t>(tor)].bytes_for(final_dst);
}

Bytes NegotiatorFabric::relay_queue_total(TorId tor) const {
  if (!relay_enabled_) return 0;
  return relay_[static_cast<std::size_t>(tor)].total_bytes();
}

const ActiveSet& NegotiatorFabric::relay_active_destinations(
    TorId tor) const {
  static const ActiveSet kEmpty;
  if (!relay_enabled_) return kEmpty;
  return relay_[static_cast<std::size_t>(tor)].active_destinations();
}

const ActiveSet& NegotiatorFabric::relay_active_sources() const {
  return relay_active_;
}

const ActiveSet& NegotiatorFabric::active_destinations(TorId src) const {
  return tors_[static_cast<std::size_t>(src)].active_destinations();
}

const ActiveSet& NegotiatorFabric::active_sources() const {
  return active_sources_;
}

bool NegotiatorFabric::rx_paused(TorId tor) const {
  // Grant-time gating uses the destination's own (current) buffer state —
  // the pause decision is local to the destination ToR.
  HostPlane* hosts = host_plane();
  return hosts != nullptr && hosts->rx_paused(tor, now_);
}

// ------------------------------------------------------------- make_fabric

std::unique_ptr<FabricSim> make_fabric(const NetworkConfig& config,
                                       Nanos stats_window_ns) {
  config.validate();
  if (config.scheduler == SchedulerKind::kOblivious) {
    return std::make_unique<ObliviousFabric>(config, stats_window_ns);
  }
  return std::make_unique<NegotiatorFabric>(config, stats_window_ns);
}

}  // namespace negotiator
