#include "core/variants/iterative.h"

#include <algorithm>

#include "common/assert.h"

namespace negotiator {

IterativeScheduler::IterativeScheduler(const NetworkConfig& config,
                                       const FlatTopology& topo, Rng rng)
    : NegotiatorScheduler(config, topo, rng),
      iterations_(config.variant.iterations) {
  NEG_ASSERT(iterations_ >= 1, "need >= 1 iteration");
}

bool IterativeScheduler::pair_has_free_tx(const Process& p, TorId src,
                                          TorId dst) const {
  const int ports = topo_.ports_per_tor();
  const PortId fixed = topo_.fixed_tx_port(src, dst);
  if (fixed != kInvalidPort) {
    return !p.tx_used[static_cast<std::size_t>(src) * ports + fixed];
  }
  for (PortId q = 0; q < ports; ++q) {
    if (!p.tx_used[static_cast<std::size_t>(src) * ports + q]) return true;
  }
  return false;
}

void IterativeScheduler::stage_request(Process& p, int round,
                                       const DemandView& demand) {
  const Bytes threshold = request_threshold_bytes();
  for (const TorId d : p.request_dsts) {
    p.requests_by_dst[static_cast<std::size_t>(d)].clear();
  }
  p.request_dsts.clear();
  for (const TorId s : demand.active_sources()) {
    for (TorId d : demand.active_destinations(s)) {
      if (demand.pending_bytes(s, d) <= threshold) continue;
      // Later rounds only re-request where an unmatched tx port remains
      // ("new request ... along with indices of unmatched ports").
      if (round > 0 && !pair_has_free_tx(p, s, d)) continue;
      RequestMsg r;
      r.src = s;
      bool duplicate = false;
      if (control_ != nullptr) {
        // The iterative exchange is staged inside one epoch, so a delayed
        // message misses its round entirely — the next epoch's fresh
        // process re-requests, which *is* the delayed retransmission.
        const ControlChannel::Fate fate =
            control_->classify(ControlClass::kRequest);
        if (!fate.deliver || fate.delay_epochs > 0) continue;
        duplicate = fate.duplicate;
      }
      auto& inbox = p.requests_by_dst[static_cast<std::size_t>(d)];
      if (inbox.empty()) p.request_dsts.push_back(d);
      inbox.push_back(r);
      if (duplicate) inbox.push_back(r);
    }
  }
  std::sort(p.request_dsts.begin(), p.request_dsts.end());
}

void IterativeScheduler::stage_grant(Process& p, const FaultPlane& faults) {
  const int ports = topo_.ports_per_tor();
  for (const TorId s : p.grant_srcs) {
    p.grants_by_src[static_cast<std::size_t>(s)].clear();
  }
  p.grant_srcs.clear();
  std::vector<bool> rx_eligible(static_cast<std::size_t>(ports));
  for (const TorId d : p.request_dsts) {
    const auto& requests = p.requests_by_dst[static_cast<std::size_t>(d)];
    if (requests.empty()) continue;
    for (PortId q = 0; q < ports; ++q) {
      rx_eligible[static_cast<std::size_t>(q)] =
          !p.rx_used[static_cast<std::size_t>(d) * ports + q] &&
          !faults.rx_excluded(d, q);
    }
    const auto& result =
        matching_.grant(d, requests, rx_eligible, epoch_capacity_bytes());
    epoch_grants_ += result.grants.size();
    for (const auto& [src, g] : result.grants) {
      bool duplicate = false;
      if (control_ != nullptr) {
        // Same in-epoch semantics as stage_request: a delayed grant misses
        // its round. Accepts in stage_accept are computed locally at the
        // source (the grant's receiver), so no accept message crosses the
        // fabric here and the accept class sees no draws.
        const ControlChannel::Fate fate =
            control_->classify(ControlClass::kGrant);
        if (!fate.deliver || fate.delay_epochs > 0) continue;
        duplicate = fate.duplicate;
      }
      auto& inbox = p.grants_by_src[static_cast<std::size_t>(src)];
      if (inbox.empty()) p.grant_srcs.push_back(src);
      inbox.push_back(g);
      if (duplicate) inbox.push_back(g);
    }
  }
  std::sort(p.grant_srcs.begin(), p.grant_srcs.end());
}

void IterativeScheduler::stage_accept(Process& p, const FaultPlane& faults) {
  const int ports = topo_.ports_per_tor();
  std::vector<bool> tx_eligible(static_cast<std::size_t>(ports));
  for (const TorId s : p.grant_srcs) {
    const auto& grants = p.grants_by_src[static_cast<std::size_t>(s)];
    if (grants.empty()) continue;
    for (PortId q = 0; q < ports; ++q) {
      tx_eligible[static_cast<std::size_t>(q)] =
          !p.tx_used[static_cast<std::size_t>(s) * ports + q] &&
          !faults.tx_excluded(s, q);
    }
    const auto& result = matching_.accept(s, grants, tx_eligible);
    epoch_accepts_ += result.matches.size();
    for (const Match& m : result.matches) {
      p.matches.push_back(m);
      p.tx_used[static_cast<std::size_t>(m.src) * ports + m.tx_port] = true;
      p.rx_used[static_cast<std::size_t>(m.dst) * ports + m.rx_port] = true;
    }
  }
}

void IterativeScheduler::begin_epoch(std::int64_t epoch, Nanos now,
                                     const DemandView& demand,
                                     const FaultPlane& faults) {
  epoch_ = epoch;
  now_ = now;
  matches_.clear();
  epoch_grants_ = 0;
  epoch_accepts_ = 0;

  // A fresh process starts every epoch.
  Process fresh;
  fresh.start_epoch = epoch;
  const auto n = static_cast<std::size_t>(topo_.num_tors());
  const auto np = n * static_cast<std::size_t>(topo_.ports_per_tor());
  fresh.tx_used.assign(np, false);
  fresh.rx_used.assign(np, false);
  fresh.requests_by_dst.resize(n);
  fresh.grants_by_src.resize(n);
  processes_.push_back(std::move(fresh));

  for (auto it = processes_.begin(); it != processes_.end();) {
    Process& p = *it;
    const auto stage = static_cast<int>(epoch - p.start_epoch);
    const int round = stage / 3;
    NEG_ASSERT(round < iterations_, "process outlived its rounds");
    switch (stage % 3) {
      case 0:
        stage_request(p, round, demand);
        break;
      case 1:
        stage_grant(p, faults);
        break;
      case 2:
        stage_accept(p, faults);
        if (round == iterations_ - 1) {
          matches_ = std::move(p.matches);
          it = processes_.erase(it);
          continue;
        }
        break;
    }
    ++it;
  }
}

}  // namespace negotiator
