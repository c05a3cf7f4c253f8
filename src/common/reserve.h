// Capacity planning for the per-flow stores (FlowTable, the arrival
// stream, the FCT completion log).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace negotiator {

/// Makes room for `total` elements in `v` ahead of a bulk append. The first
/// bulk reservation is exact, so admitting a whole trace allocates once
/// with no doubling spike; a later one at least doubles the capacity, so
/// repeated small reservations keep push_back's amortised O(1).
template <class T>
void reserve_total(std::vector<T>& v, std::size_t total) {
  if (total > v.capacity()) v.reserve(std::max(total, 2 * v.capacity()));
}

}  // namespace negotiator
