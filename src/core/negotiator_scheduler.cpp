#include "core/negotiator_scheduler.h"

#include <span>

#include "common/assert.h"
#include "core/variants/centralized.h"
#include "core/variants/iterative.h"
#include "core/variants/projector.h"
#include "core/variants/selective_relay.h"
#include "core/variants/stateful.h"

namespace negotiator {

namespace {

/// The A.2.3 informative-request variants only swap the rings' selection
/// policy (core/matching.h); every other kind selects round-robin.
SelectionPolicy selection_policy(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNegotiatorInformativeSize:
      return SelectionPolicy::kLargestSize;
    case SchedulerKind::kNegotiatorInformativeHol:
      return SelectionPolicy::kLongestDelay;
    default:
      return SelectionPolicy::kRoundRobin;
  }
}

}  // namespace

NegotiatorScheduler::NegotiatorScheduler(const NetworkConfig& config,
                                         const FlatTopology& topo, Rng rng)
    : config_(config),
      topo_(topo),
      matching_(topo, selection_policy(config.scheduler), rng),
      rng_(rng.fork()),
      out_(static_cast<std::size_t>(topo.num_tors()) * topo.num_tors()),
      out_stamp_(static_cast<std::size_t>(topo.num_tors()) * topo.num_tors(),
                 -1),
      inbox_requests_(topo.num_tors()),
      inbox_grants_(topo.num_tors()),
      inbox_accepts_(topo.num_tors()) {}

NegotiatorScheduler::PairOut& NegotiatorScheduler::outbox(TorId from,
                                                          TorId to) {
  NEG_ASSERT(from != to, "no self messages");
  const std::size_t index =
      static_cast<std::size_t>(from) * topo_.num_tors() + to;
  PairOut& entry = out_[index];
  if (out_stamp_[index] != epoch_) {
    out_stamp_[index] = epoch_;
    out_pairs_.emplace_back(from, to);
    entry.has_request = entry.has_accept = false;
    entry.grant_head = entry.grant_tail = -1;
    entry.relay_head = entry.relay_tail = -1;
  }
  return entry;
}

namespace {

/// Appends `msg` to a per-epoch log and links it at the tail of the chain
/// (head, tail).
template <typename Log, typename T>
void append_chained(Log& log, std::int32_t& head, std::int32_t& tail,
                    const T& msg) {
  const auto index = static_cast<std::int32_t>(log.size());
  log.push_back({msg, -1});
  if (head < 0) {
    head = index;
  } else {
    log[static_cast<std::size_t>(tail)].next = index;
  }
  tail = index;
}

}  // namespace

void NegotiatorScheduler::post_grant(TorId from, TorId to,
                                     const GrantMsg& grant) {
  PairOut& entry = outbox(from, to);
  append_chained(grant_log_, entry.grant_head, entry.grant_tail, grant);
}

void NegotiatorScheduler::post_relay_request(TorId from, TorId to,
                                             const RequestMsg& request) {
  PairOut& entry = outbox(from, to);
  append_chained(relay_log_, entry.relay_head, entry.relay_tail, request);
}

Bytes NegotiatorScheduler::request_threshold_bytes() const {
  if (!config_.piggyback) return 0;
  return static_cast<Bytes>(config_.request_threshold_packets) *
         config_.piggyback_payload_bytes();
}

Bytes NegotiatorScheduler::epoch_capacity_bytes() const {
  return static_cast<Bytes>(config_.epoch.scheduled_slots) *
         config_.scheduled_payload_bytes();
}

void NegotiatorScheduler::clear_inboxes() {
  inbox_requests_.clear();
  inbox_grants_.clear();
  inbox_accepts_.clear();
}

void NegotiatorScheduler::deliver_request_lossy(TorId dst,
                                                const RequestMsg& msg) {
  const ControlChannel::Fate fate = control_->classify(ControlClass::kRequest);
  if (fate.delay_epochs > 0) {
    delayed_requests_.push_back({epoch_ + 1 + fate.delay_epochs, dst, msg});
    return;
  }
  if (!fate.deliver) return;
  inbox_requests_.push(dst, msg);
  // A duplicate request is the protocol's own stateless re-request arriving
  // twice; the matching engine tolerates it (§3.5).
  if (fate.duplicate) inbox_requests_.push(dst, msg);
}

void NegotiatorScheduler::deliver_grant_lossy(TorId dst, const GrantMsg& msg) {
  const ControlChannel::Fate fate = control_->classify(ControlClass::kGrant);
  if (fate.delay_epochs > 0) {
    // A grant names an rx port that is free in the *next* epoch only; by
    // the time a delayed copy arrives the predefined schedule has moved on
    // and the destination may have granted that port to someone else, so
    // honouring it would double-book the rx port (the MatchingValidator
    // catches exactly this). A late grant is therefore useless on arrival:
    // counted as delayed by the channel, never delivered. The source is
    // unharmed — its stateless re-request draws a fresh grant next epoch.
    return;
  }
  if (!fate.deliver) return;
  inbox_grants_.push(dst, msg);
  // Duplicate grants pin the same tx port at the accepting source, so the
  // per-port choose-one in MatchingEngine::accept collapses them — safe to
  // deliver both copies.
  if (fate.duplicate) inbox_grants_.push(dst, msg);
}

void NegotiatorScheduler::deliver_accept_lossy(TorId dst,
                                               const AcceptMsg& msg) {
  const ControlChannel::Fate fate = control_->classify(ControlClass::kAccept);
  if (fate.delay_epochs > 0) {
    delayed_accepts_.push_back({epoch_ + 1 + fate.delay_epochs, dst, msg});
    return;
  }
  if (!fate.deliver) return;
  inbox_accepts_.push(dst, msg);
  // Accept receivers are idempotent: the duplicate is counted by the
  // channel but a second copy would carry no protocol information, so it
  // is not materialized.
}

void NegotiatorScheduler::flush_delayed_messages() {
  auto flush = [this](auto& buffer, auto& inbox) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      if (buffer[i].due <= epoch_) {
        inbox.push(buffer[i].owner, buffer[i].msg);
      } else {
        buffer[keep++] = buffer[i];
      }
    }
    buffer.resize(keep);
  };
  flush(delayed_requests_, inbox_requests_);
  flush(delayed_accepts_, inbox_accepts_);
}

void NegotiatorScheduler::begin_epoch(std::int64_t epoch, Nanos now,
                                      const DemandView& demand,
                                      const FaultPlane& faults) {
  epoch_ = epoch;
  now_ = now;
  matches_.clear();
  out_pairs_.clear();
  grant_log_.clear();
  relay_log_.clear();
  epoch_grants_ = 0;
  epoch_accepts_ = 0;

  // Delayed control messages land alongside last epoch's on-time arrivals,
  // before any of them are consumed. No-op without a lossy channel.
  if (control_ != nullptr) flush_delayed_messages();

  compute_accepts(demand, faults);     // grants of e-1 -> matches of e
  consume_accept_inbox(demand);        // stateful reconciliation
  compute_grants(demand, faults);      // requests of e-1 -> grants of e
  clear_inboxes();
  sample_requests(demand, faults);     // queue state now -> requests of e
}

void NegotiatorScheduler::compute_accepts(const DemandView& /*demand*/,
                                          const FaultPlane& faults) {
  const int ports = topo_.ports_per_tor();
  std::vector<bool> tx_eligible(static_cast<std::size_t>(ports));
  if (inbox_grants_.empty()) return;
  // Dirty-set walk: only ToRs that actually received grants (ascending, so
  // processing order matches the historical dense 0..N-1 scan).
  for (const TorId s : inbox_grants_.owners()) {
    const std::span<const GrantMsg> grants = inbox_grants_.for_owner(s);
    if (grants.empty()) continue;
    for (PortId p = 0; p < ports; ++p) {
      tx_eligible[static_cast<std::size_t>(p)] = !faults.tx_excluded(s, p);
    }
    const auto& result = matching_.accept(s, grants, tx_eligible);
    epoch_accepts_ += result.matches.size();
    for (const Match& m : result.matches) {
      matches_.push_back(m);
      AcceptMsg a;
      a.src = s;
      a.dst = m.dst;
      a.tx_port = m.tx_port;
      a.rx_port = m.rx_port;
      a.accepted = true;
      PairOut& entry = outbox(s, m.dst);
      entry.has_accept = true;
      entry.accept = a;
    }
    // Rejection notices for unaccepted grants (consumed by the stateful
    // variant's matrix reconciliation; harmless otherwise). At most one
    // notice per destination: an accepted grant, like any other grant from
    // a destination accepted on some port, finds has_accept already set.
    for (const GrantMsg& g : grants) {
      PairOut& entry = outbox(s, g.dst);
      if (entry.has_accept) continue;  // an acceptance to g.dst dominates
      AcceptMsg a;
      a.src = s;
      a.dst = g.dst;
      a.rx_port = g.rx_port;
      a.accepted = false;
      entry.has_accept = true;
      entry.accept = a;
    }
  }
}

void NegotiatorScheduler::consume_accept_inbox(const DemandView&) {}

void NegotiatorScheduler::compute_grants(const DemandView& demand,
                                         const FaultPlane& faults) {
  const int ports = topo_.ports_per_tor();
  std::vector<bool> rx_eligible(static_cast<std::size_t>(ports));
  if (inbox_requests_.empty()) return;
  // Dirty-set walk: only ToRs with pending requests, ascending.
  for (const TorId d : inbox_requests_.owners()) {
    const std::span<const RequestMsg> requests =
        inbox_requests_.for_owner(d);
    if (requests.empty()) continue;
    // §3.6.5: a destination whose host-facing buffer is full withholds
    // grants until it drains.
    if (demand.rx_paused(d)) continue;
    for (PortId p = 0; p < ports; ++p) {
      rx_eligible[static_cast<std::size_t>(p)] = !faults.rx_excluded(d, p);
    }
    const auto& result =
        matching_.grant(d, requests, rx_eligible, epoch_capacity_bytes());
    epoch_grants_ += result.grants.size();
    for (const auto& [src, g] : result.grants) post_grant(d, src, g);
  }
}

void NegotiatorScheduler::sample_requests(const DemandView& demand,
                                          const FaultPlane& /*faults*/) {
  const Bytes threshold = request_threshold_bytes();
  const bool want_delay =
      matching_.policy() == SelectionPolicy::kLongestDelay;
  // Dirty-set walk: only ToRs with pending data anywhere; sources without
  // demand have empty active-destination sets, so the visit set (and its
  // ascending order) is identical to the dense scan's.
  for (const TorId s : demand.active_sources()) {
    for (TorId d : demand.active_destinations(s)) {
      const Bytes pending = demand.pending_bytes(s, d);
      if (pending <= threshold) continue;
      RequestMsg r;
      r.src = s;
      r.size = pending;
      if (want_delay) {
        r.weighted_delay =
            demand.weighted_hol_delay(s, d, now_, config_.variant.hol_alpha);
      }
      PairOut& entry = outbox(s, d);
      entry.has_request = true;
      entry.request = r;
    }
  }
}

std::unique_ptr<NegotiatorScheduler> make_negotiator_scheduler(
    const NetworkConfig& config, const FlatTopology& topo, Rng rng) {
  switch (config.scheduler) {
    case SchedulerKind::kNegotiator:
    case SchedulerKind::kNegotiatorInformativeSize:
    case SchedulerKind::kNegotiatorInformativeHol:
      return std::make_unique<NegotiatorScheduler>(config, topo, rng);
    case SchedulerKind::kNegotiatorIterative:
      return std::make_unique<IterativeScheduler>(config, topo, rng);
    case SchedulerKind::kNegotiatorStateful:
      return std::make_unique<StatefulScheduler>(config, topo, rng);
    case SchedulerKind::kNegotiatorSelectiveRelay:
      return std::make_unique<SelectiveRelayScheduler>(config, topo, rng);
    case SchedulerKind::kProjector:
      return std::make_unique<ProjectorScheduler>(config, topo, rng);
    case SchedulerKind::kCentralized:
      return std::make_unique<CentralizedScheduler>(config, topo, rng);
    case SchedulerKind::kOblivious:
      break;
  }
  NEG_ASSERT(false, "kOblivious is not a NegotiatorScheduler");
  return nullptr;
}

}  // namespace negotiator
