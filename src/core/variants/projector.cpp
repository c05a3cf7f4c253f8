#include "core/variants/projector.h"

#include <span>

#include "common/assert.h"

namespace negotiator {

ProjectorScheduler::ProjectorScheduler(const NetworkConfig& config,
                                       const FlatTopology& topo, Rng rng)
    : NegotiatorScheduler(config, topo, rng),
      next_port_(static_cast<std::size_t>(topo.num_tors()), 0) {}

void ProjectorScheduler::sample_requests(const DemandView& demand,
                                         const FaultPlane& faults) {
  const Bytes threshold = request_threshold_bytes();
  const int ports = topo_.ports_per_tor();
  for (const TorId s : demand.active_sources()) {
    for (TorId d : demand.active_destinations(s)) {
      if (demand.pending_bytes(s, d) <= threshold) continue;
      // Pre-bind the tx port: pinned on thin-clos, rotating otherwise.
      PortId tx = topo_.fixed_tx_port(s, d);
      if (tx == kInvalidPort) {
        tx = next_port_[static_cast<std::size_t>(s)];
        for (int tries = 0; tries < ports; ++tries) {
          if (!faults.tx_excluded(s, tx)) break;
          tx = static_cast<PortId>((tx + 1) % ports);
        }
        next_port_[static_cast<std::size_t>(s)] =
            static_cast<PortId>((tx + 1) % ports);
      }
      const Nanos hol = demand.oldest_hol_enqueue(s, d);
      RequestMsg r;
      r.src = s;
      r.tx_port = tx;
      r.weighted_delay = hol == kNeverNs ? 0 : now_ - hol;
      PairOut& entry = outbox(s, d);
      entry.has_request = true;
      entry.request = r;
    }
  }
}

void ProjectorScheduler::compute_grants(const DemandView& /*demand*/,
                                        const FaultPlane& faults) {
  const int ports = topo_.ports_per_tor();
  if (inbox_requests_.empty()) return;
  for (const TorId d : inbox_requests_.owners()) {
    const std::span<const RequestMsg> requests =
        inbox_requests_.for_owner(d);
    if (requests.empty()) continue;
    for (PortId p = 0; p < ports; ++p) {
      if (faults.rx_excluded(d, p)) continue;
      // Longest-waiting compatible request wins this rx port. A request
      // bound to tx port q lands on rx port q (parallel network planes) or
      // on the pinned rx port (thin-clos).
      const RequestMsg* best = nullptr;
      for (const RequestMsg& r : requests) {
        if (topo_.rx_port(r.src, r.tx_port) != p) continue;
        if (best == nullptr || r.weighted_delay > best->weighted_delay) {
          best = &r;
        }
      }
      if (best == nullptr) continue;
      GrantMsg g;
      g.dst = d;
      g.rx_port = p;
      g.weighted_delay = best->weighted_delay;
      epoch_grants_ += 1;
      post_grant(d, best->src, g);
    }
  }
}

void ProjectorScheduler::compute_accepts(const DemandView& /*demand*/,
                                         const FaultPlane& faults) {
  const int ports = topo_.ports_per_tor();
  if (inbox_grants_.empty()) return;
  for (const TorId s : inbox_grants_.owners()) {
    const std::span<const GrantMsg> grants = inbox_grants_.for_owner(s);
    if (grants.empty()) continue;
    for (PortId p = 0; p < ports; ++p) {
      if (faults.tx_excluded(s, p)) continue;
      const GrantMsg* best = nullptr;
      for (const GrantMsg& g : grants) {
        if (topo_.grant_tx_port(g.dst, g.rx_port) != p) continue;
        if (best == nullptr || g.weighted_delay > best->weighted_delay) {
          best = &g;
        }
      }
      if (best == nullptr) continue;
      Match m;
      m.src = s;
      m.tx_port = p;
      m.dst = best->dst;
      m.rx_port = best->rx_port;
      matches_.push_back(m);
      epoch_accepts_ += 1;
    }
  }
}

}  // namespace negotiator
