#include "workload/size_distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "workload/flow.h"

namespace negotiator {
namespace {

/// The quantile as first written: both anchor logs taken per call and the
/// bracketing anchor found by binary search. The stored-log quantile must
/// return exactly this.
Bytes reference_quantile(const SizeDistribution& dist, double u) {
  using Point = SizeDistribution::Point;
  const std::vector<Point>& points = dist.points();
  u = std::clamp(u, 0.0, 1.0);
  if (points.size() == 1) return points[0].size;
  if (u <= points[0].cdf) return points[0].size;
  const auto it = std::lower_bound(
      points.begin(), points.end(), u,
      [](const Point& p, double v) { return p.cdf < v; });
  const Point& hi = *it;
  const Point& lo = *(it - 1);
  const double t = (u - lo.cdf) / (hi.cdf - lo.cdf);
  const double log_size = std::log(static_cast<double>(lo.size)) +
                          t * (std::log(static_cast<double>(hi.size)) -
                               std::log(static_cast<double>(lo.size)));
  const auto size = static_cast<Bytes>(std::llround(std::exp(log_size)));
  return std::max<Bytes>(1, size);
}

/// The 200 000-step midpoint sum over the reference quantile.
double reference_mean(const SizeDistribution& dist) {
  constexpr int kSteps = 200'000;
  double acc = 0.0;
  for (int i = 1; i <= kSteps; ++i) {
    const double u = (static_cast<double>(i) - 0.5) / kSteps;
    acc += static_cast<double>(reference_quantile(dist, u));
  }
  return acc / kSteps;
}

std::vector<SizeDistribution> exactness_cases() {
  return {SizeDistribution::hadoop(), SizeDistribution::web_search(),
          SizeDistribution::google(), SizeDistribution::fixed(1'500),
          SizeDistribution({{64, 0.3}, {9'000, 1.0}}, "two-anchor")};
}

TEST(SizeDistribution, HadoopShapeMatchesPaper) {
  // §4.1: "60% of the flows are less than 1KB, while more than 80% of the
  // bits are from elephant flows larger than 100KB."
  const auto dist = SizeDistribution::hadoop();
  EXPECT_NEAR(dist.quantile(0.60), 1'000, 50);
  // Byte share of flows > 100 KB via Monte Carlo.
  Rng rng(1);
  double total = 0, elephant = 0;
  for (int i = 0; i < 200'000; ++i) {
    const auto s = static_cast<double>(dist.sample(rng));
    total += s;
    if (s > 100'000) elephant += s;
  }
  EXPECT_GT(elephant / total, 0.80);
}

TEST(SizeDistribution, WebSearchIsHeavy) {
  // §4.4: "more than 80% flows exceed 10KB" — fewer than 20% are mice.
  const auto dist = SizeDistribution::web_search();
  EXPECT_GT(dist.quantile(0.20), kMiceFlowBytes);
}

TEST(SizeDistribution, GoogleIsLight) {
  // §4.4: "more than 80% flows are less than 1KB" — over 85% are mice.
  const auto dist = SizeDistribution::google();
  EXPECT_GE(dist.quantile(0.80), 1);
  EXPECT_LE(dist.quantile(0.80), 1'000);
  EXPECT_LT(dist.quantile(0.85), kMiceFlowBytes);
}

TEST(SizeDistribution, QuantileIsMonotone) {
  for (const auto& dist :
       {SizeDistribution::hadoop(), SizeDistribution::web_search(),
        SizeDistribution::google()}) {
    Bytes prev = 0;
    for (int i = 0; i <= 100; ++i) {
      const Bytes q = dist.quantile(i / 100.0);
      EXPECT_GE(q, prev);
      prev = q;
    }
  }
}

TEST(SizeDistribution, SampleMeanMatchesComputedMean) {
  const auto dist = SizeDistribution::hadoop();
  Rng rng(3);
  double sum = 0;
  const int n = 500'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(dist.sample(rng));
  EXPECT_NEAR(sum / n, dist.mean_bytes(), dist.mean_bytes() * 0.05);
}

TEST(SizeDistribution, FixedAlwaysSame) {
  const auto dist = SizeDistribution::fixed(1'000);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.sample(rng), 1'000);
  EXPECT_DOUBLE_EQ(dist.mean_bytes(), 1'000.0);
}

TEST(SizeDistribution, FixedMiceClassification) {
  // Every quantile of a fixed size is that size: 1 KB flows are all mice,
  // flows of exactly the threshold none.
  for (const double u : {0.0, 0.5, 1.0}) {
    EXPECT_LT(SizeDistribution::fixed(1'000).quantile(u), kMiceFlowBytes);
    EXPECT_GE(SizeDistribution::fixed(kMiceFlowBytes).quantile(u),
              kMiceFlowBytes);
  }
}

TEST(SizeDistribution, QuantileMatchesPerCallLogReferenceExactly) {
  for (const auto& dist : exactness_cases()) {
    SCOPED_TRACE(dist.name());
    constexpr int kGrid = 100'000;
    for (int i = 0; i <= kGrid; ++i) {
      const double u = static_cast<double>(i) / kGrid;
      ASSERT_EQ(dist.quantile(u), reference_quantile(dist, u)) << "u=" << u;
    }
    for (const auto& p : dist.points()) {
      for (const double u : {std::nextafter(p.cdf, 0.0), p.cdf,
                             std::nextafter(p.cdf, 2.0)}) {
        EXPECT_EQ(dist.quantile(u), reference_quantile(dist, u))
            << "u=" << u << " anchor cdf=" << p.cdf;
      }
    }
  }
}

TEST(SizeDistribution, MeanMatchesPerCallLogReferenceExactly) {
  for (const auto& dist : exactness_cases()) {
    SCOPED_TRACE(dist.name());
    EXPECT_EQ(dist.mean_bytes(), reference_mean(dist));
  }
}

TEST(SizeDistribution, SamplesMatchReferenceQuantileExactly) {
  // sample() is quantile(next_double()): one draw per sample, same value.
  const auto dist = SizeDistribution::hadoop();
  Rng rng(7);
  Rng ref(7);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(dist.sample(rng), reference_quantile(dist, ref.next_double()));
  }
  EXPECT_EQ(rng.next_u64(), ref.next_u64());
}

TEST(SizeDistribution, RejectsMalformedPoints) {
  EXPECT_THROW(SizeDistribution({}, "x"), std::invalid_argument);
  EXPECT_THROW(SizeDistribution({{100, 0.5}}, "x"), std::invalid_argument)
      << "last cdf must be 1";
  EXPECT_THROW(SizeDistribution({{100, 0.5}, {50, 1.0}}, "x"),
               std::invalid_argument)
      << "sizes must increase";
  EXPECT_THROW(SizeDistribution({{100, 0.7}, {200, 0.6}, {300, 1.0}}, "x"),
               std::invalid_argument)
      << "cdf must increase";
}

TEST(SizeDistribution, SamplesNeverBelowOneByte) {
  const auto dist = SizeDistribution::google();
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(dist.sample(rng), 1);
}

}  // namespace
}  // namespace negotiator
