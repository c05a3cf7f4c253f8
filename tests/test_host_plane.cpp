// §3.6.5 traffic management below ToRs: unit tests of the fluid
// receive-buffer model and integration tests of grant gating.
#include "tor/host_plane.h"

#include <gtest/gtest.h>

#include "engine/runner.h"
#include "workload/generator.h"
#include "workload/size_distribution.h"

namespace negotiator {
namespace {

HostPlaneConfig small_buffers() {
  HostPlaneConfig c;
  c.enabled = true;
  c.rx_buffer_capacity = 100'000;
  c.rx_high_watermark = 80'000;
  c.rx_low_watermark = 40'000;
  return c;
}

/// Occupancy of `tor`'s receive buffer at `when`, read on the public
/// path: a copy of `hp` takes two buffer-sized deliveries at `when`. The
/// first overflows by what was buffered (if positive), the second by a
/// full buffer plus anything below zero, so the overflow they add, less
/// one capacity, is the occupancy whatever its sign. `hp` itself is left
/// untouched.
Bytes occupancy(const HostPlane& hp, TorId tor, Nanos when) {
  HostPlane probe = hp;
  const Bytes capacity = probe.config().rx_buffer_capacity;
  const Bytes before = probe.overflow_bytes();
  probe.on_delivery(tor, capacity, when);
  probe.on_delivery(tor, capacity, when);
  return probe.overflow_bytes() - before - capacity;
}

TEST(HostPlane, StartsEmptyAndUnpaused) {
  HostPlane hp(4, Rate::from_gbps(400), small_buffers());
  EXPECT_EQ(occupancy(hp, 0, 0), 0);
  EXPECT_FALSE(hp.rx_paused(0, 0));
  EXPECT_EQ(hp.overflow_bytes(), 0);
}

TEST(HostPlane, DrainsAtHostRate) {
  HostPlane hp(4, Rate::from_gbps(400), small_buffers());  // 50 B/ns
  hp.on_delivery(0, 50'000, 0);
  EXPECT_EQ(occupancy(hp, 0, 0), 50'000);
  EXPECT_EQ(occupancy(hp, 0, 500), 25'000);
  EXPECT_EQ(occupancy(hp, 0, 1'000), 0);
  EXPECT_EQ(occupancy(hp, 0, 5'000), 0) << "never negative";
}

TEST(HostPlane, PausesAtHighWatermarkResumesAtLow) {
  HostPlane hp(4, Rate::from_gbps(400), small_buffers());
  hp.on_delivery(0, 85'000, 0);
  EXPECT_TRUE(hp.rx_paused(0, 0));
  // Still above the low watermark shortly after: stays paused (hysteresis).
  EXPECT_TRUE(hp.rx_paused(0, 100));  // 85k - 5k = 80k > 40k
  // After draining below 40k it resumes.
  EXPECT_FALSE(hp.rx_paused(0, 1'000));  // 85k - 50k = 35k
}

TEST(HostPlane, OverflowAccounted) {
  HostPlane hp(4, Rate::from_gbps(400), small_buffers());
  hp.on_delivery(0, 150'000, 0);
  EXPECT_EQ(hp.overflow_bytes(), 50'000);
  EXPECT_EQ(occupancy(hp, 0, 0), 100'000) << "clamped at capacity";
}

TEST(HostPlane, PerTorIsolation) {
  HostPlane hp(4, Rate::from_gbps(400), small_buffers());
  hp.on_delivery(1, 85'000, 0);
  EXPECT_TRUE(hp.rx_paused(1, 0));
  EXPECT_FALSE(hp.rx_paused(0, 0));
  EXPECT_FALSE(hp.rx_paused(2, 0));
}

TEST(HostPlane, RejectsBadWatermarks) {
  HostPlaneConfig c = small_buffers();
  c.rx_low_watermark = c.rx_buffer_capacity + 1;
  EXPECT_DEATH(HostPlane(2, Rate::from_gbps(400), c), "watermarks");
}

// ------------------------------------------------------------- integration

NetworkConfig fabric_config() {
  // The pause signal acts at GRANT time, so matches already in the 2-epoch
  // pipeline keep delivering after the watermark trips; the buffer must
  // leave headroom for ~3 epochs of worst-case net inflow above the high
  // watermark (here 4 rx ports x 67 KB/epoch).
  NetworkConfig cfg;
  cfg.num_tors = 16;
  cfg.ports_per_tor = 4;
  cfg.topology = TopologyKind::kParallel;
  cfg.host_plane.enabled = true;
  cfg.host_plane.rx_buffer_capacity = 1'500'000;
  cfg.host_plane.rx_high_watermark = 400'000;
  cfg.host_plane.rx_low_watermark = 200'000;
  return cfg;
}

TEST(HostPlaneIntegration, NoOverflowUnderHotspot) {
  // Every other ToR blasts one ToR at full speedup: without gating the
  // receiver's host links (1x) would be outrun by the fabric (2x); with
  // §3.6.5 gating the buffer must never overflow.
  NetworkConfig cfg = fabric_config();
  NegotiatorFabric fab(cfg);
  FlowId id = 0;
  for (TorId s = 1; s < cfg.num_tors; ++s) {
    Flow f;
    f.id = id++;
    f.src = s;
    f.dst = 0;
    f.size = 2'000'000;
    f.arrival = 0;
    fab.add_flow(f);
  }
  fab.run_until(2'000'000);
  ASSERT_NE(fab.host_plane(), nullptr);
  EXPECT_EQ(fab.host_plane()->overflow_bytes(), 0)
      << "grant gating failed to protect the receive buffer";
}

TEST(HostPlaneIntegration, EverythingStillDelivered) {
  NetworkConfig cfg = fabric_config();
  auto fab = make_fabric(cfg);
  const auto sizes = SizeDistribution::hadoop();
  WorkloadGenerator gen(sizes, cfg.num_tors, cfg.host_rate(), 0.5, Rng(3));
  const auto flows = gen.generate(0, 500'000);
  fab->add_flows(flows);
  fab->run_until(60'000'000);
  EXPECT_EQ(fab->fct().completed(), flows.size());
  EXPECT_EQ(fab->total_backlog(), 0);
}

TEST(HostPlaneIntegration, DisabledPlaneUnchangedBehaviour) {
  // With the plane off (default) the fabric ignores host buffers entirely.
  NetworkConfig cfg = fabric_config();
  cfg.host_plane.enabled = false;
  NegotiatorFabric fab(cfg);
  EXPECT_EQ(fab.host_plane(), nullptr);
  EXPECT_FALSE(fab.rx_paused(0));
}

TEST(HostPlaneIntegration, GoodputCappedByHostLinks) {
  // Under an all-to-one hotspot the delivered rate into the hot ToR cannot
  // exceed ~1x host aggregate once the buffer gates engage.
  NetworkConfig cfg = fabric_config();
  Runner runner(cfg, /*stats_window=*/100'000);
  FlowId id = 0;
  for (TorId s = 1; s < cfg.num_tors; ++s) {
    Flow f;
    f.id = id++;
    f.src = s;
    f.dst = 0;
    f.size = 5'000'000;
    f.arrival = 0;
    runner.fabric().add_flow(f);
  }
  runner.fabric().run_until(1'500'000);
  const auto& series = runner.fabric().goodput().tor_window_series(0);
  // Steady-state windows (skip the first two).
  for (std::size_t w = 2; w + 1 < series.size(); ++w) {
    const double gbps = static_cast<double>(series[w]) * 8.0 / 100'000.0;
    EXPECT_LT(gbps, cfg.host_aggregate_gbps * 1.3)
        << "window " << w << " exceeds host capacity by too much";
  }
}

}  // namespace
}  // namespace negotiator
