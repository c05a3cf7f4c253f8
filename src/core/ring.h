// Round-robin priority ring (§3.2.1), the arbitration primitive borrowed
// from RRM [31]: the pointer marks the highest-priority member, priority
// falls off clockwise, and after a pick the pointer moves just past the
// picked member ("prioritize the source ToR that's least recently
// granted"). Pointer updates are unconditional, as in RRM (not iSLIP).
//
// Range contract: the clockwise order is an ascending id range with at
// most one id skipped inside it. Every ring the topologies build has that
// shape (rx_sources / tx_destinations are ascending, minus self), so a
// ring is three integers and a pointer: member and position are
// arithmetic, with no per-ring member or position table. A member list of
// any other shape aborts at construction. An empty ring (a thin-clos ToR's
// own block when every block holds one ToR) is legal, never picks, and
// makes no RNG draw.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "common/types.h"

namespace negotiator {

class RoundRobinRing {
 public:
  /// `members` is the fixed clockwise order (see the range contract
  /// above); the pointer starts at a random position ("randomly initialize
  /// rings", Algorithm 1) — one next_below draw for a non-empty ring.
  RoundRobinRing(const std::vector<TorId>& members, Rng& rng) {
    if (members.empty()) return;
    lo_ = members.front();
    size_ = members.size();
    TorId skip = kInvalidTor;
    for (std::size_t i = 1; i < members.size(); ++i) {
      const std::int64_t gap =
          static_cast<std::int64_t>(members[i]) - members[i - 1];
      if (gap == 2 && skip == kInvalidTor) {
        skip = members[i - 1] + 1;
        continue;
      }
      NEG_ASSERT(gap == 1,
                 "ring members must be an ascending range minus at most one "
                 "id");
    }
    span_ = size_ + (skip == kInvalidTor ? 0 : 1);
    // Without a hole, park the skip just past the range: no member is
    // above it, so the position arithmetic needs no branch.
    skip_ = skip == kInvalidTor ? static_cast<TorId>(lo_ + size_) : skip;
    pointer_ = static_cast<std::size_t>(
        rng.next_below(static_cast<std::int64_t>(size_)));
  }

  /// Picks the first eligible member at or after the pointer, advances the
  /// pointer past it, and returns it; kInvalidTor when nobody is eligible.
  template <typename Eligible>
  TorId pick(Eligible&& eligible) {
    for (std::size_t step = 0; step < size_; ++step) {
      const std::size_t idx = (pointer_ + step) % size_;
      const TorId member = member_at(idx);
      if (eligible(member)) {
        pointer_ = (idx + 1) % size_;
        return member;
      }
    }
    return kInvalidTor;
  }

  /// Picks the candidate closest clockwise to the pointer (equivalent to
  /// pick() with "is a candidate" eligibility, but O(candidates) instead
  /// of O(ring size) — the hot-path form). Non-members are skipped;
  /// kInvalidTor when no candidate is a member.
  template <typename Container>
  TorId pick_among(const Container& candidates) {
    std::size_t best_dist = size_;  // any real distance is < size_
    std::size_t best_pos = 0;
    TorId best = kInvalidTor;
    for (const TorId c : candidates) {
      const auto offset =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(c) - lo_);
      if (offset >= span_ || c == skip_) continue;
      const std::size_t p = offset - (c > skip_ ? 1 : 0);
      const std::size_t dist = p >= pointer_ ? p - pointer_
                                             : p + size_ - pointer_;
      if (dist < best_dist) {
        best_dist = dist;
        best_pos = p;
        best = c;
      }
    }
    if (best != kInvalidTor) pointer_ = (best_pos + 1) % size_;
    return best;
  }

  std::size_t size() const { return size_; }
  std::size_t pointer() const { return pointer_; }

 private:
  TorId member_at(std::size_t position) const {
    const auto id = static_cast<TorId>(lo_ + static_cast<TorId>(position));
    return id >= skip_ ? id + 1 : id;
  }

  TorId lo_{0};            // lowest member
  TorId skip_{0};          // the hole, or lo_ + size_ without one
  std::size_t size_{0};    // members
  std::size_t span_{0};    // ids covered by [lo_, highest member]
  std::size_t pointer_{0};
};

}  // namespace negotiator
