#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "workload/all_to_all.h"
#include "workload/generator.h"
#include "workload/incast.h"
#include "workload/poisson.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

TEST(Poisson, ArrivalsAreMonotone) {
  PoissonProcess p(0.01, Rng(1));
  Nanos prev = 0;
  for (int i = 0; i < 1'000; ++i) {
    const Nanos t = p.next_arrival();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(Poisson, RateIsRespected) {
  const double rate = 0.002;  // 2 arrivals per microsecond
  PoissonProcess p(rate, Rng(2));
  int count = 0;
  while (p.next_arrival() < 10'000'000) ++count;
  EXPECT_NEAR(count, 20'000, 600);
}

TEST(WorkloadGenerator, LoadModelSetsArrivalRate) {
  // L = F / (R * N * tau)  =>  lambda = L * R * N / F (§4.1).
  const auto sizes = SizeDistribution::fixed(100'000);
  WorkloadGenerator gen(sizes, 128, Rate::from_gbps(400), 0.5, Rng(3));
  const double expected = 0.5 * 50.0 * 128 / 100'000;  // bytes/ns / bytes
  EXPECT_NEAR(gen.flow_rate_per_ns(), expected, expected * 1e-9);
}

TEST(WorkloadGenerator, GeneratedLoadMatches) {
  const auto sizes = SizeDistribution::hadoop();
  const double load = 0.8;
  WorkloadGenerator gen(sizes, 128, Rate::from_gbps(400), load, Rng(4));
  const Nanos dur = 5'000'000;
  const auto flows = gen.generate(0, dur);
  double bytes = 0;
  for (const Flow& f : flows) bytes += static_cast<double>(f.size);
  const double offered = bytes / (50.0 * 128 * dur);
  EXPECT_NEAR(offered, load, load * 0.15);  // stochastic tolerance
}

TEST(WorkloadGenerator, EndpointsValidAndDistinct) {
  const auto sizes = SizeDistribution::google();
  WorkloadGenerator gen(sizes, 16, Rate::from_gbps(400), 0.5, Rng(5));
  for (const Flow& f : gen.generate(0, 1'000'000)) {
    EXPECT_GE(f.src, 0);
    EXPECT_LT(f.src, 16);
    EXPECT_GE(f.dst, 0);
    EXPECT_LT(f.dst, 16);
    EXPECT_NE(f.src, f.dst);
    EXPECT_GT(f.size, 0);
    EXPECT_GE(f.arrival, 0);
    EXPECT_LT(f.arrival, 1'000'000);
  }
}

TEST(WorkloadGenerator, StartOffsetAndIdsApplied) {
  const auto sizes = SizeDistribution::fixed(1'000);
  WorkloadGenerator gen(sizes, 8, Rate::from_gbps(400), 1.0, Rng(6));
  const auto flows = gen.generate(500, 100'000, 42, 7);
  ASSERT_FALSE(flows.empty());
  EXPECT_EQ(flows[0].id, 42);
  EXPECT_EQ(flows[0].group, 7);
  for (const Flow& f : flows) EXPECT_GE(f.arrival, 500);
}

TEST(Incast, DegreeSourcesAllDistinct) {
  Rng rng(7);
  const auto flows = make_incast(128, 50, 1'000, 3, 1'000, rng);
  EXPECT_EQ(flows.size(), 50u);
  std::set<TorId> sources;
  for (const Flow& f : flows) {
    EXPECT_EQ(f.dst, 3);
    EXPECT_NE(f.src, 3);
    EXPECT_EQ(f.size, 1'000);
    EXPECT_EQ(f.arrival, 1'000);
    sources.insert(f.src);
  }
  EXPECT_EQ(sources.size(), 50u);
}

TEST(Incast, MaxDegreeUsesEveryOtherTor) {
  Rng rng(8);
  const auto flows = make_incast(16, 15, 500, 0, 0, rng);
  std::set<TorId> sources;
  for (const Flow& f : flows) sources.insert(f.src);
  EXPECT_EQ(sources.size(), 15u);
}

TEST(IncastMix, BandwidthFractionRespected) {
  // Fig. 13a: incasts take 2% of aggregated downlink bandwidth.
  Rng rng(9);
  const Nanos dur = 20'000'000;
  const auto flows = make_incast_mix(128, 20, 1'000, 0.02,
                                     Rate::from_gbps(400), 0, dur, rng);
  double bytes = 0;
  for (const Flow& f : flows) bytes += static_cast<double>(f.size);
  const double fraction = bytes / (50.0 * 128 * dur);
  EXPECT_NEAR(fraction, 0.02, 0.004);
  EXPECT_EQ(flows.size() % 20, 0u) << "whole incast events";
}

/// The incast mix as first written: a fresh candidate list and a fresh
/// burst vector per event, appended to an output grown without a reserve.
std::vector<Flow> reference_incast_mix(int num_tors, int degree,
                                       Bytes flow_size,
                                       double bandwidth_fraction,
                                       Rate host_rate, Nanos start,
                                       Nanos duration, Rng& rng,
                                       FlowId first_id, int group) {
  const double bytes_per_ns =
      bandwidth_fraction * host_rate.bytes_per_ns * num_tors;
  const double event_rate =
      bytes_per_ns / (static_cast<double>(degree) * flow_size);
  PoissonProcess events(event_rate, rng.fork());
  std::vector<Flow> flows;
  FlowId id = first_id;
  for (;;) {
    const Nanos t = events.next_arrival();
    if (t >= duration) break;
    const TorId dst = static_cast<TorId>(rng.next_below(num_tors));
    std::vector<TorId> candidates;
    for (TorId s = 0; s < num_tors; ++s) {
      if (s != dst) candidates.push_back(s);
    }
    std::vector<Flow> burst;
    for (int i = 0; i < degree; ++i) {
      const auto j = static_cast<std::size_t>(
          i + rng.next_below(static_cast<std::int64_t>(candidates.size()) -
                             i));
      std::swap(candidates[static_cast<std::size_t>(i)], candidates[j]);
      burst.push_back(Flow{id + i, candidates[static_cast<std::size_t>(i)],
                           dst, flow_size, start + t, group});
    }
    id += static_cast<FlowId>(burst.size());
    flows.insert(flows.end(), burst.begin(), burst.end());
  }
  return flows;
}

TEST(IncastMix, MatchesFreshBufferReferenceExactly) {
  struct Shape {
    int num_tors;
    int degree;
  };
  for (const Shape shape : {Shape{16, 15}, Shape{128, 20}, Shape{128, 127}}) {
    for (const std::uint64_t seed : {9ULL, 20261ULL}) {
      SCOPED_TRACE(::testing::Message() << "N=" << shape.num_tors << " degree="
                                        << shape.degree << " seed=" << seed);
      Rng rng(seed);
      Rng ref_rng = rng;
      const Nanos dur = 2'000'000;
      const auto flows =
          make_incast_mix(shape.num_tors, shape.degree, 1'000, 0.02,
                          Rate::from_gbps(400), 300, dur, rng, 11, 3);
      const auto ref =
          reference_incast_mix(shape.num_tors, shape.degree, 1'000, 0.02,
                               Rate::from_gbps(400), 300, dur, ref_rng, 11, 3);
      ASSERT_EQ(flows.size(), ref.size());
      ASSERT_FALSE(flows.empty());
      for (std::size_t i = 0; i < flows.size(); ++i) {
        ASSERT_EQ(flows[i].id, ref[i].id) << "flow " << i;
        ASSERT_EQ(flows[i].src, ref[i].src) << "flow " << i;
        ASSERT_EQ(flows[i].dst, ref[i].dst) << "flow " << i;
        ASSERT_EQ(flows[i].size, ref[i].size) << "flow " << i;
        ASSERT_EQ(flows[i].arrival, ref[i].arrival) << "flow " << i;
        ASSERT_EQ(flows[i].group, ref[i].group) << "flow " << i;
      }
      EXPECT_EQ(rng.next_u64(), ref_rng.next_u64()) << "same draws consumed";
    }
  }
}

TEST(AllToAll, FullMesh) {
  const auto flows = make_all_to_all(16, 30'000, 5'000);
  EXPECT_EQ(flows.size(), 16u * 15u);
  std::set<std::pair<TorId, TorId>> pairs;
  for (const Flow& f : flows) {
    EXPECT_NE(f.src, f.dst);
    EXPECT_EQ(f.size, 30'000);
    EXPECT_EQ(f.arrival, 5'000);
    pairs.insert({f.src, f.dst});
  }
  EXPECT_EQ(pairs.size(), 16u * 15u);
}

}  // namespace
}  // namespace negotiator
