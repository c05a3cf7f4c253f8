#include "core/fault_detector.h"

#include "common/assert.h"
#include "stats/resilience_recorder.h"

namespace negotiator {

FaultPlane::FaultPlane(int num_tors, int ports_per_tor, int threshold)
    : num_tors_(num_tors),
      ports_(ports_per_tor),
      threshold_(threshold),
      ingress_(static_cast<std::size_t>(num_tors) * ports_per_tor),
      egress_(static_cast<std::size_t>(num_tors) * ports_per_tor) {
  NEG_ASSERT(threshold >= 1, "detection threshold must be >= 1");
}

FaultPlane::Dir& FaultPlane::at(std::vector<Dir>& v, TorId tor, PortId port) {
  NEG_ASSERT(tor >= 0 && tor < num_tors_ && port >= 0 && port < ports_,
             "port address out of range");
  return v[static_cast<std::size_t>(tor) * ports_ + port];
}

const FaultPlane::Dir& FaultPlane::at(const std::vector<Dir>& v, TorId tor,
                                      PortId port) const {
  NEG_ASSERT(tor >= 0 && tor < num_tors_ && port >= 0 && port < ports_,
             "port address out of range");
  return v[static_cast<std::size_t>(tor) * ports_ + port];
}

void FaultPlane::observe(std::vector<Dir>& v, TorId tor, PortId port,
                         bool ok) {
  mutate_dir(at(v, tor, port), [this, ok](Dir& d) {
    if (ok) {
      d.hit_streak++;
      d.miss_streak = 0;
      if (d.excluded && d.hit_streak >= threshold_) d.pending_include = true;
    } else {
      d.miss_streak++;
      d.hit_streak = 0;
      if (!d.excluded && d.miss_streak >= threshold_) d.pending_exclude = true;
    }
  });
}

void FaultPlane::observe_ingress(TorId dst, PortId rx, bool received) {
  observe(ingress_, dst, rx, received);
}

void FaultPlane::observe_egress(TorId src, PortId tx, bool delivered) {
  observe(egress_, src, tx, delivered);
}

void FaultPlane::end_epoch(ResilienceRecorder& recorder, Nanos now) {
  if (quiescent()) return;  // nothing pending anywhere
  auto sweep = [&](std::vector<Dir>& v, LinkDirection dir_kind) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      mutate_dir(v[i], [&](Dir& d) {
        if (d.pending_exclude) {
          d.excluded = true;
          d.pending_exclude = false;
          ++excluded_count_;
          recorder.on_exclude(now, static_cast<TorId>(i / ports_),
                              static_cast<PortId>(i % ports_), dir_kind);
        }
        if (d.pending_include) {
          NEG_ASSERT(d.excluded, "include without exclude");
          d.excluded = false;
          d.pending_include = false;
          --excluded_count_;
          recorder.on_include(now, static_cast<TorId>(i / ports_),
                              static_cast<PortId>(i % ports_), dir_kind);
        }
      });
    }
  };
  sweep(ingress_, LinkDirection::kIngress);
  sweep(egress_, LinkDirection::kEgress);
}

bool FaultPlane::tx_excluded(TorId tor, PortId port) const {
  return at(egress_, tor, port).excluded;
}

bool FaultPlane::rx_excluded(TorId tor, PortId port) const {
  return at(ingress_, tor, port).excluded;
}

}  // namespace negotiator
