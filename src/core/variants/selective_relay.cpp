#include "core/variants/selective_relay.h"

#include <algorithm>
#include <span>

#include "common/assert.h"

namespace negotiator {

SelectiveRelayScheduler::SelectiveRelayScheduler(const NetworkConfig& config,
                                                 const FlatTopology& topo,
                                                 Rng rng)
    : NegotiatorScheduler(config, topo, rng) {
  NEG_ASSERT(topo.kind() == TopologyKind::kThinClos,
             "selective relay targets the thin-clos topology (A.2.2)");
}

Bytes SelectiveRelayScheduler::direct_load_on_port(const DemandView& demand,
                                                   TorId src,
                                                   PortId port) const {
  const int block = topo_.block_size();
  Bytes load = 0;
  for (TorId d = port * block; d < (port + 1) * block; ++d) {
    if (d != src) load += demand.pending_bytes(src, d);
  }
  return load;
}

void SelectiveRelayScheduler::sample_requests(const DemandView& demand,
                                              const FaultPlane& faults) {
  // 1. Direct requests, as in the base algorithm.
  NegotiatorScheduler::sample_requests(demand, faults);

  const int ports = topo_.ports_per_tor();

  // 2. Second-hop requests: an intermediate with relayed bytes parked for
  //    some final destination asks that destination for a connection.
  for (const TorId m : demand.relay_active_sources()) {
    for (TorId d : demand.relay_active_destinations(m)) {
      if (d == m) continue;
      PairOut& entry = outbox(m, d);
      if (!entry.has_request) {
        RequestMsg r;
        r.src = m;
        r.size = demand.relay_pending(m, d);
        entry.has_request = true;
        entry.request = r;
      }
    }
  }

  // 3. Relay-establishment requests for heavy elephant backlogs.
  for (const TorId s : demand.active_sources()) {
    // Per-port direct load, used to exclude intermediates whose shared
    // link already carries high-volume direct traffic (Fig. 16).
    std::vector<Bytes> port_load(static_cast<std::size_t>(ports));
    bool any_elephant = false;
    for (TorId d : demand.active_destinations(s)) {
      if (demand.elephant_bytes(s, d) >
          config_.variant.relay_elephant_threshold) {
        any_elephant = true;
      }
    }
    if (!any_elephant) continue;
    for (PortId p = 0; p < ports; ++p) {
      port_load[static_cast<std::size_t>(p)] = direct_load_on_port(demand, s, p);
    }
    for (TorId d : demand.active_destinations(s)) {
      const Bytes elephant = demand.elephant_bytes(s, d);
      if (elephant <= config_.variant.relay_elephant_threshold) continue;
      // Candidate blocks, lightest shared direct load first; a block whose
      // shared port already carries heavy direct traffic is excluded.
      const PortId direct_port = topo_.fixed_tx_port(s, d);
      std::vector<PortId> blocks;
      for (PortId p = 0; p < ports; ++p) {
        if (p == direct_port) continue;  // relaying via d's own block helps
                                         // little and competes with hop 2
        if (port_load[static_cast<std::size_t>(p)] >
            config_.variant.relay_heavy_direct_threshold) {
          continue;
        }
        blocks.push_back(p);
      }
      std::sort(blocks.begin(), blocks.end(), [&](PortId a, PortId b) {
        return port_load[static_cast<std::size_t>(a)] <
               port_load[static_cast<std::size_t>(b)];
      });
      int sent = 0;
      for (PortId p : blocks) {
        if (sent >= 2) break;
        // Rotate inside the block so intermediates take turns.
        const int block = topo_.block_size();
        const TorId m = p * block + static_cast<TorId>((epoch_ + s) % block);
        if (m == s || m == d) continue;
        RequestMsg r;
        r.src = s;
        r.relay = true;
        r.relay_final_dst = d;
        r.relay_volume = std::min(elephant, epoch_capacity_bytes());
        post_relay_request(s, m, r);
        ++sent;
      }
    }
  }
}

void SelectiveRelayScheduler::compute_grants(const DemandView& demand,
                                             const FaultPlane& faults) {
  const int ports = topo_.ports_per_tor();
  std::vector<bool> rx_eligible(static_cast<std::size_t>(ports));
  std::vector<RequestMsg> direct;
  if (inbox_requests_.empty()) return;
  for (const TorId d : inbox_requests_.owners()) {
    const std::span<const RequestMsg> requests =
        inbox_requests_.for_owner(d);
    if (requests.empty()) continue;
    direct.clear();
    for (const RequestMsg& r : requests) {
      if (!r.relay) direct.push_back(r);
    }
    for (PortId p = 0; p < ports; ++p) {
      rx_eligible[static_cast<std::size_t>(p)] = !faults.rx_excluded(d, p);
    }
    // A copy: the relay pass below marks more rx ports in port_used.
    auto result =
        matching_.grant(d, direct, rx_eligible, epoch_capacity_bytes());
    epoch_grants_ += result.grants.size();
    for (const auto& [src, g] : result.grants) post_grant(d, src, g);
    // Relay grants only on rx ports the direct traffic left free, with
    // queue space (congestion control) and no heavy direct conflict on the
    // second hop's shared port.
    Bytes space = config_.variant.relay_queue_capacity -
                  demand.relay_queue_total(d);
    for (const RequestMsg& r : requests) {
      if (!r.relay || space <= 0) continue;
      const PortId rx = topo_.rx_port(r.src, topo_.fixed_tx_port(r.src, d));
      if (result.port_used[static_cast<std::size_t>(rx)]) continue;
      if (!rx_eligible[static_cast<std::size_t>(rx)]) continue;
      const PortId second_hop_port = topo_.fixed_tx_port(d, r.relay_final_dst);
      if (direct_load_on_port(demand, d, second_hop_port) >
          config_.variant.relay_heavy_direct_threshold) {
        continue;
      }
      GrantMsg g;
      g.dst = d;
      g.rx_port = rx;
      g.relay = true;
      g.relay_final_dst = r.relay_final_dst;
      g.relay_volume = std::min({r.relay_volume, space,
                                 epoch_capacity_bytes()});
      if (g.relay_volume <= 0) continue;
      space -= g.relay_volume;
      result.port_used[static_cast<std::size_t>(rx)] = true;
      epoch_grants_ += 1;
      post_grant(d, r.src, g);
    }
  }
}

void SelectiveRelayScheduler::compute_accepts(const DemandView& /*demand*/,
                                              const FaultPlane& faults) {
  const int ports = topo_.ports_per_tor();
  std::vector<bool> tx_eligible(static_cast<std::size_t>(ports));
  std::vector<GrantMsg> direct;
  if (inbox_grants_.empty()) return;
  for (const TorId s : inbox_grants_.owners()) {
    const std::span<const GrantMsg> grants = inbox_grants_.for_owner(s);
    if (grants.empty()) continue;
    direct.clear();
    for (const GrantMsg& g : grants) {
      if (!g.relay) direct.push_back(g);
    }
    for (PortId p = 0; p < ports; ++p) {
      tx_eligible[static_cast<std::size_t>(p)] = !faults.tx_excluded(s, p);
    }
    // Direct grants take priority ("the transmission of direct traffic is
    // prioritized over relayed traffic").
    // A copy: the relay pass below marks more tx ports in port_used.
    auto result = matching_.accept(s, direct, tx_eligible);
    epoch_accepts_ += result.matches.size();
    for (const Match& m : result.matches) matches_.push_back(m);
    // Relay grants fill the remaining tx ports, one per port.
    for (const GrantMsg& g : grants) {
      if (!g.relay) continue;
      const PortId tx = topo_.fixed_tx_port(s, g.dst);
      if (result.port_used[static_cast<std::size_t>(tx)]) continue;
      if (!tx_eligible[static_cast<std::size_t>(tx)]) continue;
      Match m;
      m.src = s;
      m.tx_port = tx;
      m.dst = g.dst;
      m.rx_port = g.rx_port;
      m.relay = true;
      m.relay_final_dst = g.relay_final_dst;
      m.relay_volume = g.relay_volume;
      matches_.push_back(m);
      result.port_used[static_cast<std::size_t>(tx)] = true;
      epoch_accepts_ += 1;
    }
  }
}

}  // namespace negotiator
