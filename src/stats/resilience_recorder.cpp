#include "stats/resilience_recorder.h"

#include <algorithm>

#include "common/assert.h"

namespace negotiator {

ResilienceRecorder::ResilienceRecorder(int num_tors, int ports_per_tor)
    : num_tors_(num_tors),
      ports_(ports_per_tor),
      links_(static_cast<std::size_t>(2 * num_tors * ports_per_tor)) {
  NEG_ASSERT(num_tors >= 1 && ports_per_tor >= 1, "bad recorder shape");
}

std::size_t ResilienceRecorder::index(TorId tor, PortId port,
                                      LinkDirection dir) const {
  NEG_ASSERT(tor >= 0 && tor < num_tors_ && port >= 0 && port < ports_,
             "link address out of range");
  const std::size_t base =
      (static_cast<std::size_t>(tor) * ports_ + port) * 2;
  return base + (dir == LinkDirection::kIngress ? 1 : 0);
}

void ResilienceRecorder::on_link_toggle(Nanos now, TorId tor, PortId port,
                                        LinkDirection dir, bool fail) {
  DirState& s = links_[index(tor, port, dir)];
  if (fail) {
    s.last_fail = now;
    ++failures_;
  } else {
    s.last_repair = now;
    ++repairs_;
  }
}

void ResilienceRecorder::on_exclude(Nanos now, TorId tor, PortId port,
                                    LinkDirection dir) {
  ++exclusions_;
  const DirState& s = links_[index(tor, port, dir)];
  // A spurious exclusion (no recorded failure) yields no latency sample.
  if (s.last_fail == kNeverNs || now < s.last_fail) return;
  const Nanos latency = now - s.last_fail;
  ++detection_.count;
  detection_.sum += latency;
  detection_.max = std::max(detection_.max, latency);
}

void ResilienceRecorder::on_include(Nanos now, TorId tor, PortId port,
                                    LinkDirection dir) {
  ++inclusions_;
  const DirState& s = links_[index(tor, port, dir)];
  if (s.last_repair == kNeverNs || now < s.last_repair) return;
  const Nanos latency = now - s.last_repair;
  ++recovery_.count;
  recovery_.sum += latency;
  recovery_.max = std::max(recovery_.max, latency);
}

}  // namespace negotiator
