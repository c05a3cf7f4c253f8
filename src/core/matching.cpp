#include "core/matching.h"

#include <algorithm>

#include "common/assert.h"

namespace negotiator {

MatchingEngine::MatchingEngine(const FlatTopology& topo,
                               SelectionPolicy policy, Rng& rng)
    : topo_(topo), policy_(policy) {
  const int n = topo_.num_tors();
  const int s = topo_.ports_per_tor();
  if (topo_.parallel()) {
    grant_rings_.reserve(static_cast<std::size_t>(n));
    for (TorId d = 0; d < n; ++d) {
      grant_rings_.emplace_back(topo_.rx_sources(d, 0), rng);
    }
  } else {
    grant_rings_.reserve(static_cast<std::size_t>(n) * s);
    for (TorId d = 0; d < n; ++d) {
      for (PortId p = 0; p < s; ++p) {
        grant_rings_.emplace_back(topo_.rx_sources(d, p), rng);
      }
    }
  }
  accept_rings_.reserve(static_cast<std::size_t>(n) * s);
  for (TorId t = 0; t < n; ++t) {
    for (PortId p = 0; p < s; ++p) {
      accept_rings_.emplace_back(topo_.tx_destinations(t, p), rng);
    }
  }
  slot_of_tor_.assign(static_cast<std::size_t>(n), -1);
  touched_.reserve(static_cast<std::size_t>(n));
}

RoundRobinRing& MatchingEngine::grant_ring(TorId dst, PortId rx) {
  if (topo_.parallel()) {
    return grant_rings_[static_cast<std::size_t>(dst)];
  }
  return grant_rings_[static_cast<std::size_t>(dst) * topo_.ports_per_tor() +
                      rx];
}

RoundRobinRing& MatchingEngine::accept_ring(TorId src, PortId tx) {
  return accept_rings_[static_cast<std::size_t>(src) * topo_.ports_per_tor() +
                       tx];
}

const MatchingEngine::GrantResult& MatchingEngine::grant(
    TorId dst, std::span<const RequestMsg> requests,
    const std::vector<bool>& rx_eligible, Bytes epoch_capacity) {
  const int ports = topo_.ports_per_tor();
  NEG_ASSERT(static_cast<int>(rx_eligible.size()) == ports,
             "rx_eligible size mismatch");
  GrantResult& out = grant_out_;
  out.grants.clear();
  out.port_used.assign(static_cast<std::size_t>(ports), false);
  if (requests.empty()) return out;

  // Working copies of the per-requester metadata used by the policies.
  std::vector<Work>& work = work_;
  work.clear();
  // Dense index: slot_of_tor_[src] -> first Work entry for that source
  // (matching the old scan's first-occurrence semantics).
  touched_.clear();
  for (const RequestMsg& r : requests) {
    NEG_ASSERT(r.src != dst, "self request");
    if (slot_of_tor_[static_cast<std::size_t>(r.src)] < 0) {
      slot_of_tor_[static_cast<std::size_t>(r.src)] =
          static_cast<std::int32_t>(work.size());
      touched_.push_back(r.src);
    }
    work.push_back(Work{r.src, std::max<Bytes>(r.size, 1), r.weighted_delay,
                        false});
  }

  for (PortId p = 0; p < ports; ++p) {
    if (!rx_eligible[static_cast<std::size_t>(p)]) continue;
    Work* chosen = nullptr;
    switch (policy_) {
      case SelectionPolicy::kRoundRobin: {
        // Ring membership already encodes port reachability (thin-clos
        // rings span exactly one group), so the requester list is the
        // whole candidate set — O(requesters), not O(ring size).
        const TorId picked = grant_ring(dst, p).pick_among(touched_);
        if (picked != kInvalidTor) {
          chosen = &work[static_cast<std::size_t>(
              slot_of_tor_[static_cast<std::size_t>(picked)])];
        }
        break;
      }
      case SelectionPolicy::kLargestSize: {
        for (Work& w : work) {
          if (w.remaining <= 0 || !topo_.lands_on(w.src, p)) continue;
          if (chosen == nullptr || w.remaining > chosen->remaining) {
            chosen = &w;
          }
        }
        if (chosen != nullptr) {
          chosen->remaining -= std::max<Bytes>(epoch_capacity, 1);
        }
        break;
      }
      case SelectionPolicy::kLongestDelay: {
        auto pick_round = [&]() -> Work* {
          Work* best = nullptr;
          for (Work& w : work) {
            if (w.granted_round || !topo_.lands_on(w.src, p)) continue;
            if (best == nullptr || w.delay > best->delay) best = &w;
          }
          return best;
        };
        chosen = pick_round();
        if (chosen == nullptr) {
          // Everyone reachable from this port was granted once: start a new
          // round so spare ports still get used.
          for (Work& w : work) w.granted_round = false;
          chosen = pick_round();
        }
        if (chosen != nullptr) chosen->granted_round = true;
        break;
      }
    }
    if (chosen == nullptr) continue;
    GrantMsg g;
    g.dst = dst;
    g.rx_port = p;
    g.weighted_delay = chosen->delay;
    out.grants.emplace_back(chosen->src, g);
    out.port_used[static_cast<std::size_t>(p)] = true;
  }
  for (const TorId t : touched_) {
    slot_of_tor_[static_cast<std::size_t>(t)] = -1;
  }
  return out;
}

const MatchingEngine::AcceptResult& MatchingEngine::accept(
    TorId src, std::span<const GrantMsg> grants,
    const std::vector<bool>& tx_eligible) {
  const int ports = topo_.ports_per_tor();
  NEG_ASSERT(static_cast<int>(tx_eligible.size()) == ports,
             "tx_eligible size mismatch");
  AcceptResult& out = accept_out_;
  out.matches.clear();
  out.port_used.assign(static_cast<std::size_t>(ports), false);
  if (grants.empty()) return out;

  // Group the grants by the tx port they pin (index chains, no per-call
  // vector-of-vectors): head/next form per-port singly linked lists in
  // arrival order.
  by_port_head_.assign(static_cast<std::size_t>(ports), -1);
  by_port_tail_.assign(static_cast<std::size_t>(ports), -1);
  next_in_port_.assign(grants.size(), -1);
  for (std::size_t i = 0; i < grants.size(); ++i) {
    const GrantMsg& g = grants[i];
    const PortId tx = topo_.grant_tx_port(g.dst, g.rx_port);
    NEG_ASSERT(tx >= 0 && tx < ports, "grant pins an invalid tx port");
    const auto t = static_cast<std::size_t>(tx);
    if (by_port_head_[t] < 0) {
      by_port_head_[t] = static_cast<std::int32_t>(i);
    } else {
      next_in_port_[static_cast<std::size_t>(by_port_tail_[t])] =
          static_cast<std::int32_t>(i);
    }
    by_port_tail_[t] = static_cast<std::int32_t>(i);
  }

  for (PortId p = 0; p < ports; ++p) {
    if (!tx_eligible[static_cast<std::size_t>(p)]) continue;
    const std::int32_t head = by_port_head_[static_cast<std::size_t>(p)];
    if (head < 0) continue;
    const GrantMsg* chosen = nullptr;
    if (policy_ == SelectionPolicy::kLongestDelay) {
      for (std::int32_t i = head; i >= 0;
           i = next_in_port_[static_cast<std::size_t>(i)]) {
        const GrantMsg& g = grants[static_cast<std::size_t>(i)];
        if (chosen == nullptr || g.weighted_delay > chosen->weighted_delay) {
          chosen = &g;
        }
      }
    } else {
      // Ring-based pick for both kRoundRobin and kLargestSize (the source
      // has no size metadata in grants; fairness is the sensible default).
      // Dense index: slot_of_tor_[dst] -> first candidate of this port.
      touched_.clear();
      for (std::int32_t i = head; i >= 0;
           i = next_in_port_[static_cast<std::size_t>(i)]) {
        const TorId d = grants[static_cast<std::size_t>(i)].dst;
        if (slot_of_tor_[static_cast<std::size_t>(d)] < 0) {
          slot_of_tor_[static_cast<std::size_t>(d)] = i;
          touched_.push_back(d);
        }
      }
      const TorId picked = accept_ring(src, p).pick_among(touched_);
      if (picked != kInvalidTor) {
        chosen = &grants[static_cast<std::size_t>(
            slot_of_tor_[static_cast<std::size_t>(picked)])];
      }
      for (const TorId t : touched_) {
        slot_of_tor_[static_cast<std::size_t>(t)] = -1;
      }
    }
    if (chosen == nullptr) continue;
    Match m;
    m.src = src;
    m.tx_port = p;
    m.dst = chosen->dst;
    m.rx_port = chosen->rx_port;
    out.matches.push_back(m);
    out.port_used[static_cast<std::size_t>(p)] = true;
  }
  return out;
}

}  // namespace negotiator
