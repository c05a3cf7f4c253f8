#include "topo/link_state.h"

#include "common/assert.h"

namespace negotiator {

LinkState::LinkState(int num_tors, int ports_per_tor)
    : num_tors_(num_tors),
      ports_per_tor_(ports_per_tor),
      up_(static_cast<std::size_t>(2 * num_tors * ports_per_tor), true) {
  NEG_ASSERT(num_tors >= 1 && ports_per_tor >= 1, "bad link-state shape");
}

std::size_t LinkState::index(TorId tor, PortId port, LinkDirection dir) const {
  NEG_ASSERT(tor >= 0 && tor < num_tors_, "tor out of range");
  NEG_ASSERT(port >= 0 && port < ports_per_tor_, "port out of range");
  const std::size_t base =
      (static_cast<std::size_t>(tor) * ports_per_tor_ + port) * 2;
  return base + (dir == LinkDirection::kIngress ? 1 : 0);
}

void LinkState::fail(TorId tor, PortId port, LinkDirection dir) {
  const auto i = index(tor, port, dir);
  if (up_[i]) {
    up_[i] = false;
    ++failed_count_;
  }
}

void LinkState::repair(TorId tor, PortId port, LinkDirection dir) {
  const auto i = index(tor, port, dir);
  if (!up_[i]) {
    up_[i] = true;
    --failed_count_;
  }
}

bool LinkState::is_up(TorId tor, PortId port, LinkDirection dir) const {
  return up_[index(tor, port, dir)];
}

}  // namespace negotiator
