// Percentile helpers (nearest-rank order statistics).
#pragma once

#include <vector>

namespace negotiator {

/// p in [0, 100]. Empty input returns 0. Nearest-rank method.
double percentile(std::vector<double> values, double p);

/// percentile() without the copy: selects in place, so `values` comes back
/// reordered (same multiset, so further selections on it stay exact).
double select_percentile(std::vector<double>& values, double p);

/// Arithmetic mean; empty input returns 0.
double mean(const std::vector<double>& values);

}  // namespace negotiator
