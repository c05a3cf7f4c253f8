#include "core/variants/centralized.h"

#include "common/assert.h"

namespace negotiator {

CentralizedScheduler::CentralizedScheduler(const NetworkConfig& config,
                                           const FlatTopology& topo, Rng rng)
    : NegotiatorScheduler(config, topo, rng) {}

std::vector<Match> CentralizedScheduler::solve(
    const std::vector<std::pair<TorId, TorId>>& pairs,
    const FaultPlane& faults) {
  const int n = topo_.num_tors();
  const int ports = topo_.ports_per_tor();
  std::vector<bool> tx_used(static_cast<std::size_t>(n) * ports, false);
  std::vector<bool> rx_used(static_cast<std::size_t>(n) * ports, false);
  std::vector<Match> matches;
  if (pairs.empty()) return matches;

  // Greedy maximal matching: walk the demand pairs starting at a rotating
  // offset (fairness across epochs) and claim the first free port pair.
  fairness_offset_ = (fairness_offset_ + 1) % pairs.size();
  for (std::size_t step = 0; step < pairs.size(); ++step) {
    const auto& [s, d] = pairs[(fairness_offset_ + step) % pairs.size()];
    const PortId fixed = topo_.fixed_tx_port(s, d);
    const PortId first = fixed == kInvalidPort ? 0 : fixed;
    const PortId last = fixed == kInvalidPort ? ports - 1 : fixed;
    for (PortId p = first; p <= last; ++p) {
      if (tx_used[static_cast<std::size_t>(s) * ports + p]) continue;
      if (faults.tx_excluded(s, p)) continue;
      if (!topo_.reachable(s, p, d)) continue;
      const PortId rx = topo_.rx_port(s, p);
      if (rx_used[static_cast<std::size_t>(d) * ports + rx]) continue;
      if (faults.rx_excluded(d, rx)) continue;
      tx_used[static_cast<std::size_t>(s) * ports + p] = true;
      rx_used[static_cast<std::size_t>(d) * ports + rx] = true;
      Match m;
      m.src = s;
      m.tx_port = p;
      m.dst = d;
      m.rx_port = rx;
      matches.push_back(m);
      break;  // one port per pair per epoch, like the distributed algorithm
    }
  }
  return matches;
}

void CentralizedScheduler::begin_epoch(std::int64_t epoch, Nanos now,
                                       const DemandView& demand,
                                       const FaultPlane& faults) {
  epoch_ = epoch;
  now_ = now;
  matches_.clear();
  epoch_grants_ = 0;
  epoch_accepts_ = 0;

  // Snapshot this epoch's demand; it reaches the controller, is solved and
  // distributed, and takes effect two epochs later — the same information
  // delay as the distributed pipeline.
  std::vector<std::pair<TorId, TorId>> snapshot;
  const Bytes threshold = request_threshold_bytes();
  for (const TorId s : demand.active_sources()) {
    for (TorId d : demand.active_destinations(s)) {
      if (demand.pending_bytes(s, d) > threshold && !demand.rx_paused(d)) {
        snapshot.emplace_back(s, d);
      }
    }
  }
  in_flight_.push_back(std::move(snapshot));
  if (in_flight_.size() < 3) return;  // nothing scheduled yet

  matches_ = solve(in_flight_.front(), faults);
  in_flight_.pop_front();
  // For the match-ratio accounting: the controller "grants" exactly what
  // is accepted.
  epoch_grants_ = matches_.size();
  epoch_accepts_ = matches_.size();
}

}  // namespace negotiator
