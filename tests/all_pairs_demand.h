// A DemandView fake for driving a NegotiatorScheduler without a fabric:
// every source has 1 MB pending towards every other ToR, forever, and no
// relay or elephant bytes.
#pragma once

#include <cstddef>
#include <vector>

#include "common/active_set.h"
#include "common/types.h"
#include "core/demand_view.h"

namespace negotiator {

class AllPairsDemand : public DemandView {
 public:
  explicit AllPairsDemand(int n) : active_(static_cast<std::size_t>(n)) {
    for (TorId s = 0; s < n; ++s) {
      active_sources_.insert(s);
      for (TorId d = 0; d < n; ++d) {
        if (s != d) active_[static_cast<std::size_t>(s)].insert(d);
      }
    }
  }
  Bytes pending_bytes(TorId, TorId) const override { return 1'000'000; }
  Bytes elephant_bytes(TorId, TorId) const override { return 0; }
  Nanos weighted_hol_delay(TorId, TorId, Nanos, double) const override {
    return 0;
  }
  Nanos oldest_hol_enqueue(TorId, TorId) const override { return 0; }
  Bytes cumulative_arrived(TorId, TorId) const override { return 1'000'000; }
  Bytes relay_pending(TorId, TorId) const override { return 0; }
  Bytes relay_queue_total(TorId) const override { return 0; }
  const ActiveSet& relay_active_destinations(TorId) const override {
    static const ActiveSet kEmpty;
    return kEmpty;
  }
  const ActiveSet& active_destinations(TorId s) const override {
    return active_[static_cast<std::size_t>(s)];
  }
  const ActiveSet& active_sources() const override { return active_sources_; }

 private:
  std::vector<ActiveSet> active_;
  ActiveSet active_sources_;
};

}  // namespace negotiator
