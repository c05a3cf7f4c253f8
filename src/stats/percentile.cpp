#include "stats/percentile.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace negotiator {

double percentile(std::vector<double> values, double p) {
  return select_percentile(values, p);
}

double select_percentile(std::vector<double>& values, double p) {
  NEG_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
  if (values.empty()) return 0.0;
  const auto n = values.size();
  const double raw = std::ceil(p / 100.0 * static_cast<double>(n)) - 1.0;
  const double clamped =
      std::clamp(raw, 0.0, static_cast<double>(n) - 1.0);
  const auto safe_rank = static_cast<std::size_t>(clamped);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(safe_rank),
                   values.end());
  return values[safe_rank];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc / static_cast<double>(values.size());
}

}  // namespace negotiator
