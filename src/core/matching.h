// NegotiaToR Matching (§3.2.1, Algorithm 1): the GRANT and ACCEPT steps,
// with the topology-dependent ring layout of Fig. 3(b)/(c):
//   - parallel network: one shared GRANT ring per destination ToR (any rx
//     port can hear any source, and sharing state across ports improves
//     fairness); a grant names an rx port, which pins the same-plane tx
//     port at the source;
//   - thin-clos: one GRANT ring per rx port over the 16 sources of that
//     port's group.
// ACCEPT uses one ring per tx port in both topologies.
//
// The selection policy generalizes the ring to the A.2.3 informative
// variants: kLargestSize picks the requester with the most pending bytes
// (decremented by one epoch's capacity per granted port), kLongestDelay the
// one with the largest weighted HoL delay (each requester granted once
// before anyone is granted twice).
//
// Hot-path note: ring eligibility and chosen-candidate lookups are O(1)
// through dense per-source / per-destination slot arrays (scratch members
// reset via touched lists), not linear rescans of the request set — the
// picks are byte-identical to the straightforward implementation (see
// tests/test_matching_equivalence.cpp).
//
// Result lifetime: grant() and accept() fill engine-owned scratch and
// return a reference to it, so the steps allocate nothing once warm. A
// result is valid until the next call of the same step; a caller that
// mutates one (selective relay marks extra ports in port_used) copies it.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/messages.h"
#include "core/ring.h"
#include "topo/topology.h"

namespace negotiator {

enum class SelectionPolicy { kRoundRobin, kLargestSize, kLongestDelay };

class MatchingEngine {
 public:
  MatchingEngine(const FlatTopology& topo, SelectionPolicy policy, Rng& rng);

  struct GrantResult {
    /// (granted source, grant message) pairs to send back.
    std::vector<std::pair<TorId, GrantMsg>> grants;
    /// Which rx ports were allocated (size = ports_per_tor).
    std::vector<bool> port_used;
  };

  /// GRANT step at `dst`: allocates every eligible rx port to the pending
  /// (non-relay) requests. `epoch_capacity` is the data volume one match
  /// can move in an epoch (used by the kLargestSize policy).
  const GrantResult& grant(TorId dst, std::span<const RequestMsg> requests,
                           const std::vector<bool>& rx_eligible,
                           Bytes epoch_capacity);

  struct AcceptResult {
    std::vector<Match> matches;
    /// Which tx ports got matched (size = ports_per_tor).
    std::vector<bool> port_used;
  };

  /// ACCEPT step at `src`: picks at most one grant per eligible tx port.
  const AcceptResult& accept(TorId src, std::span<const GrantMsg> grants,
                             const std::vector<bool>& tx_eligible);

  SelectionPolicy policy() const { return policy_; }

 private:
  RoundRobinRing& grant_ring(TorId dst, PortId rx);
  RoundRobinRing& accept_ring(TorId src, PortId tx);

  const FlatTopology& topo_;
  SelectionPolicy policy_;
  // Parallel network: one grant ring per destination; thin-clos: one per
  // (destination, rx port).
  std::vector<RoundRobinRing> grant_rings_;
  std::vector<RoundRobinRing> accept_rings_;

  /// grant()'s working copy of one request's policy metadata.
  struct Work {
    TorId src;
    Bytes remaining;      // kLargestSize
    Nanos delay;          // kLongestDelay
    bool granted_round;   // kLongestDelay round marker
  };

  // The results grant()/accept() hand out, and grant()'s working set.
  GrantResult grant_out_;
  AcceptResult accept_out_;
  std::vector<Work> work_;
  // Scratch for the dense-index lookups, sized num_tors; entries are -1
  // outside a grant()/accept() call (reset via the touched list).
  std::vector<std::int32_t> slot_of_tor_;
  std::vector<TorId> touched_;
  // Scratch for accept()'s per-tx-port candidate chains.
  std::vector<std::int32_t> by_port_head_;
  std::vector<std::int32_t> by_port_tail_;
  std::vector<std::int32_t> next_in_port_;
};

}  // namespace negotiator
