#include "workload/size_distribution.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/assert.h"

namespace negotiator {
namespace {

// Trapezoidal integration of the quantile function gives the mean.
constexpr int kMeanIntegrationSteps = 200'000;

}  // namespace

SizeDistribution::SizeDistribution(std::vector<Point> points, std::string name)
    : points_(std::move(points)), name_(std::move(name)) {
  if (points_.empty()) {
    throw std::invalid_argument("SizeDistribution: no points");
  }
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].size <= 0 || points_[i].cdf <= 0.0 ||
        points_[i].cdf > 1.0) {
      throw std::invalid_argument("SizeDistribution: bad anchor point");
    }
    if (i > 0 && (points_[i].size <= points_[i - 1].size ||
                  points_[i].cdf <= points_[i - 1].cdf)) {
      throw std::invalid_argument("SizeDistribution: points not increasing");
    }
  }
  if (points_.back().cdf != 1.0) {
    throw std::invalid_argument("SizeDistribution: last cdf must be 1");
  }
  log_sizes_.reserve(points_.size());
  for (const Point& p : points_) {
    log_sizes_.push_back(std::log(static_cast<double>(p.size)));
  }
  // The midpoints only grow, so the bracketing anchor only moves forward.
  // Same sums as quantile(u) per step; a single anchor has cdf 1 > u.
  double acc = 0.0;
  std::size_t hi = 1;
  for (int i = 1; i <= kMeanIntegrationSteps; ++i) {
    const double u = (static_cast<double>(i) - 0.5) / kMeanIntegrationSteps;
    Bytes q = points_[0].size;
    if (u > points_[0].cdf) {
      while (points_[hi].cdf < u) ++hi;
      q = interpolate(hi, u);
    }
    acc += static_cast<double>(q);
  }
  mean_bytes_ = acc / kMeanIntegrationSteps;
}

Bytes SizeDistribution::quantile(double u) const {
  u = std::clamp(u, 0.0, 1.0);
  if (points_.size() == 1) return points_[0].size;
  // Implicit anchor: (first size, 0) — the smallest flows all have roughly
  // the first anchor's size.
  if (u <= points_[0].cdf) return points_[0].size;
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), u,
      [](const Point& p, double v) { return p.cdf < v; });
  NEG_ASSERT(it != points_.end(), "quantile anchor lookup failed");
  return interpolate(static_cast<std::size_t>(it - points_.begin()), u);
}

Bytes SizeDistribution::interpolate(std::size_t hi, double u) const {
  const Point& lo = points_[hi - 1];
  const double log_lo = log_sizes_[hi - 1];
  const double t = (u - lo.cdf) / (points_[hi].cdf - lo.cdf);
  const double log_size = log_lo + t * (log_sizes_[hi] - log_lo);
  const auto size = static_cast<Bytes>(std::llround(std::exp(log_size)));
  return std::max<Bytes>(1, size);
}

Bytes SizeDistribution::sample(Rng& rng) const {
  return quantile(rng.next_double());
}

SizeDistribution SizeDistribution::hadoop() {
  // Meta Hadoop [41]: heavily tailed; 60% of flows below 1 KB, elephants
  // above 100 KB carry the bulk of the bytes.
  return SizeDistribution(
      {
          {100, 0.20},
          {300, 0.45},
          {1'000, 0.60},
          {2'000, 0.67},
          {10'000, 0.78},
          {100'000, 0.90},
          {1'000'000, 0.96},
          {10'000'000, 0.998},
          {30'000'000, 1.0},
      },
      "hadoop");
}

SizeDistribution SizeDistribution::web_search() {
  // DCTCP web search [1]: > 80% of flows exceed 10 KB.
  return SizeDistribution(
      {
          {6'000, 0.15},
          {13'000, 0.20},
          {19'000, 0.30},
          {33'000, 0.40},
          {53'000, 0.53},
          {133'000, 0.60},
          {667'000, 0.70},
          {1'333'000, 0.80},
          {3'333'000, 0.90},
          {6'667'000, 0.95},
          {20'000'000, 0.98},
          {30'000'000, 1.0},
      },
      "web-search");
}

SizeDistribution SizeDistribution::google() {
  // Aggregated Google datacenter traffic [34, 46]: > 80% of flows < 1 KB.
  return SizeDistribution(
      {
          {100, 0.40},
          {300, 0.60},
          {600, 0.80},
          {1'000, 0.85},
          {5'000, 0.90},
          {10'000, 0.92},
          {100'000, 0.96},
          {1'000'000, 0.98},
          {10'000'000, 1.0},
      },
      "google");
}

SizeDistribution SizeDistribution::fixed(Bytes size) {
  return SizeDistribution({{size, 1.0}}, "fixed");
}

}  // namespace negotiator
