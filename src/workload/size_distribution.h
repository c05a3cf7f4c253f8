// Empirical flow-size distributions.
//
// A distribution is a piecewise log-linear CDF through (size, probability)
// anchor points. Three presets reproduce the shapes the paper evaluates:
//   - Hadoop (Meta's Hadoop clusters [41]): 60% of flows < 1 KB, > 80% of
//     bytes from flows > 100 KB.
//   - WebSearch (DCTCP [1]): > 80% of flows exceed 10 KB.
//   - Google (aggregated Google datacenter [34, 46]): > 80% of flows < 1 KB.
// The raw traces are proprietary; the anchor tables below reproduce the
// published CDF shapes, which is what the evaluation depends on (see
// DESIGN.md "Substitutions").
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace negotiator {

class SizeDistribution {
 public:
  struct Point {
    Bytes size;
    double cdf;  // P(flow size <= size)
  };

  /// Points must be strictly increasing in both size and cdf, with the last
  /// cdf equal to 1. Throws std::invalid_argument otherwise.
  explicit SizeDistribution(std::vector<Point> points, std::string name);

  static SizeDistribution hadoop();
  static SizeDistribution web_search();
  static SizeDistribution google();
  /// Every flow has exactly this size.
  static SizeDistribution fixed(Bytes size);

  const std::string& name() const { return name_; }

  /// Inverse-CDF sample (log-linear interpolation between anchors); one
  /// `exp` per call.
  Bytes sample(Rng& rng) const;

  /// Quantile (u in [0,1]) without consuming randomness.
  Bytes quantile(double u) const;

  /// Mean flow size of the interpolated distribution, integrated once at
  /// construction. Used by the load model L = F / (R * N * tau) (§4.1).
  double mean_bytes() const { return mean_bytes_; }

  const std::vector<Point>& points() const { return points_; }

 private:
  /// Quantile of u in (points_[hi - 1].cdf, points_[hi].cdf].
  Bytes interpolate(std::size_t hi, double u) const;

  std::vector<Point> points_;
  std::vector<double> log_sizes_;  // std::log of each anchor's size
  std::string name_;
  double mean_bytes_;
};

}  // namespace negotiator
