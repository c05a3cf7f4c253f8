#include "tor/host_plane.h"

#include <algorithm>

#include "common/assert.h"

namespace negotiator {

HostPlane::HostPlane(int num_tors, Rate host_rate,
                     const HostPlaneConfig& config)
    : host_rate_(host_rate),
      config_(config),
      rx_(static_cast<std::size_t>(num_tors)) {
  NEG_ASSERT(num_tors >= 1, "need >= 1 ToR");
  NEG_ASSERT(config.rx_low_watermark <= config.rx_high_watermark &&
                 config.rx_high_watermark <= config.rx_buffer_capacity,
             "watermarks must be ordered");
}

void HostPlane::drain(RxState& state, Nanos when) {
  // Deliveries are timestamped at their (future) arrival instant while
  // queries use the current clock, so a query can trail the last update;
  // answer from the most recent state in that case.
  if (when <= state.updated_at) return;
  const double drained =
      host_rate_.bytes_per_ns * static_cast<double>(when - state.updated_at);
  state.occupancy = std::max(0.0, state.occupancy - drained);
  state.updated_at = when;
  if (state.paused &&
      state.occupancy <= static_cast<double>(config_.rx_low_watermark)) {
    state.paused = false;
  }
}

void HostPlane::on_delivery(TorId dst, Bytes bytes, Nanos when) {
  RxState& state = rx_[static_cast<std::size_t>(dst)];
  drain(state, when);
  state.occupancy += static_cast<double>(bytes);
  const auto cap = static_cast<double>(config_.rx_buffer_capacity);
  if (state.occupancy > cap) {
    overflow_ += static_cast<Bytes>(state.occupancy - cap);
    state.occupancy = cap;
  }
  if (state.occupancy >= static_cast<double>(config_.rx_high_watermark)) {
    state.paused = true;
  }
}

bool HostPlane::rx_paused(TorId tor, Nanos when) {
  RxState& state = rx_[static_cast<std::size_t>(tor)];
  drain(state, when);
  return state.paused;
}

}  // namespace negotiator
