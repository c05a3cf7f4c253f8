#pragma once

#include <memory>

#include "common/config.h"
#include "topo/topology.h"

namespace negotiator {

/// Builds the topology described by `config` (validated by the caller) on
/// the heap.
inline std::unique_ptr<FlatTopology> make_topology(
    const NetworkConfig& config) {
  return std::make_unique<FlatTopology>(config);
}

}  // namespace negotiator
