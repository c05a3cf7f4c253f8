#include "core/fault_detector.h"

#include <gtest/gtest.h>

#include "stats/resilience_recorder.h"

namespace negotiator {
namespace {

TEST(FaultPlane, NothingExcludedInitially) {
  FaultPlane fp(4, 2);
  EXPECT_FALSE(fp.tx_excluded(0, 0));
  EXPECT_FALSE(fp.rx_excluded(3, 1));
  EXPECT_EQ(fp.excluded_count(), 0);
}

TEST(FaultPlane, ConsecutiveMissesTriggerExclusionAfterBroadcast) {
  FaultPlane fp(4, 2, /*threshold=*/3);
  ResilienceRecorder rec(4, 2);
  for (int i = 0; i < 3; ++i) fp.observe_ingress(1, 0, false);
  EXPECT_FALSE(fp.rx_excluded(1, 0)) << "not before the epoch-end broadcast";
  fp.end_epoch(rec, 0);
  EXPECT_TRUE(fp.rx_excluded(1, 0));
  EXPECT_EQ(fp.excluded_count(), 1);
}

TEST(FaultPlane, IntermittentMissesDoNotTrigger) {
  // A single failed egress upstream produces non-consecutive misses at the
  // receiver; the separate-direction design must not overreact (§3.6.1).
  FaultPlane fp(4, 2, /*threshold=*/3);
  ResilienceRecorder rec(4, 2);
  for (int i = 0; i < 20; ++i) {
    fp.observe_ingress(1, 0, false);
    fp.observe_ingress(1, 0, false);
    fp.observe_ingress(1, 0, true);  // another source still gets through
  }
  fp.end_epoch(rec, 0);
  EXPECT_FALSE(fp.rx_excluded(1, 0));
}

TEST(FaultPlane, EgressDetectedIndependently) {
  FaultPlane fp(4, 2, 3);
  ResilienceRecorder rec(4, 2);
  for (int i = 0; i < 3; ++i) fp.observe_egress(2, 1, false);
  fp.end_epoch(rec, 0);
  EXPECT_TRUE(fp.tx_excluded(2, 1));
  EXPECT_FALSE(fp.rx_excluded(2, 1)) << "directions are independent";
}

TEST(FaultPlane, RecoveryReincludesAfterConsecutiveHits) {
  FaultPlane fp(2, 1, 3);
  ResilienceRecorder rec(2, 1);
  for (int i = 0; i < 3; ++i) fp.observe_ingress(0, 0, false);
  fp.end_epoch(rec, 0);
  ASSERT_TRUE(fp.rx_excluded(0, 0));
  // Light returns.
  for (int i = 0; i < 3; ++i) fp.observe_ingress(0, 0, true);
  fp.end_epoch(rec, 0);
  EXPECT_FALSE(fp.rx_excluded(0, 0));
  EXPECT_EQ(fp.excluded_count(), 0);
}

TEST(FaultPlane, HitResetsMissStreak) {
  FaultPlane fp(2, 1, 3);
  ResilienceRecorder rec(2, 1);
  fp.observe_ingress(0, 0, false);
  fp.observe_ingress(0, 0, false);
  fp.observe_ingress(0, 0, true);
  fp.observe_ingress(0, 0, false);
  fp.observe_ingress(0, 0, false);
  fp.end_epoch(rec, 0);
  EXPECT_FALSE(fp.rx_excluded(0, 0));
}

TEST(FaultPlane, RepairMidEpochBeforeDetectionConfirmsNeverExcludes) {
  // The link dies, racks up misses, and is repaired before the streak
  // reaches the threshold — the detection must be abandoned, not latched.
  FaultPlane fp(4, 2, /*threshold=*/8);
  ResilienceRecorder rec(4, 2);
  for (int i = 0; i < 7; ++i) fp.observe_ingress(1, 0, false);
  // Light returns mid-epoch, one observation short of confirming.
  fp.observe_ingress(1, 0, true);
  fp.end_epoch(rec, 0);
  EXPECT_FALSE(fp.rx_excluded(1, 0));
  EXPECT_EQ(fp.excluded_count(), 0);
  // And nothing is latched for later epochs either.
  fp.end_epoch(rec, 0);
  EXPECT_EQ(fp.excluded_count(), 0);
  EXPECT_TRUE(fp.quiescent());
  EXPECT_EQ(rec.exclusion_churn(), 0);
}

TEST(FaultPlane, FlapOneObservationBelowThresholdNeverExcludes) {
  // A persistent flapper that always recovers one observation before the
  // threshold: no number of cycles may accumulate into an exclusion.
  FaultPlane fp(4, 2, /*threshold=*/8);
  ResilienceRecorder rec(4, 2);
  for (int cycle = 0; cycle < 200; ++cycle) {
    for (int i = 0; i < 7; ++i) fp.observe_ingress(2, 1, false);
    fp.observe_ingress(2, 1, true);
    if (cycle % 3 == 0) fp.end_epoch(rec, 0);  // epoch edges mid-flap too
  }
  fp.end_epoch(rec, 0);
  EXPECT_FALSE(fp.rx_excluded(2, 1));
  EXPECT_EQ(fp.excluded_count(), 0);
  EXPECT_EQ(rec.exclusion_churn(), 0);
}

TEST(FaultPlane, SimultaneousIngressAndEgressExclusionOnSamePort) {
  // Both directions of one port go dark in the same epoch: both must be
  // excluded by the same broadcast, tracked independently, and recover
  // independently.
  FaultPlane fp(4, 2, /*threshold=*/3);
  ResilienceRecorder rec(4, 2);
  for (int i = 0; i < 3; ++i) {
    fp.observe_ingress(1, 1, false);
    fp.observe_egress(1, 1, false);
  }
  fp.end_epoch(rec, 0);
  EXPECT_TRUE(fp.rx_excluded(1, 1));
  EXPECT_TRUE(fp.tx_excluded(1, 1));
  EXPECT_EQ(fp.excluded_count(), 2);
  // Only the ingress side heals.
  for (int i = 0; i < 3; ++i) fp.observe_ingress(1, 1, true);
  fp.end_epoch(rec, 0);
  EXPECT_FALSE(fp.rx_excluded(1, 1));
  EXPECT_TRUE(fp.tx_excluded(1, 1)) << "directions recover independently";
  EXPECT_EQ(fp.excluded_count(), 1);
  for (int i = 0; i < 3; ++i) fp.observe_egress(1, 1, true);
  fp.end_epoch(rec, 0);
  EXPECT_EQ(fp.excluded_count(), 0);
  EXPECT_EQ(rec.exclusions(), 2);
  EXPECT_EQ(rec.inclusions(), 2);
}

TEST(FaultPlane, RecorderSeesTransitionsWithBroadcastTimestamps) {
  FaultPlane fp(4, 2, /*threshold=*/2);
  ResilienceRecorder rec(4, 2);
  rec.on_link_toggle(400, 3, 1, LinkDirection::kIngress, /*fail=*/true);
  rec.on_link_toggle(600, 2, 0, LinkDirection::kEgress, /*fail=*/true);
  fp.observe_ingress(3, 1, false);
  fp.observe_ingress(3, 1, false);
  fp.observe_egress(2, 0, false);
  fp.observe_egress(2, 0, false);
  fp.end_epoch(rec, 1'000);
  // Each exclusion reaches the recorder at its own (tor, port, direction),
  // stamped with the broadcast time: latencies 1000-400 and 1000-600.
  EXPECT_EQ(rec.exclusions(), 2);
  EXPECT_EQ(rec.detection().count, 2);
  EXPECT_EQ(rec.detection().sum, 600 + 400);
  EXPECT_EQ(rec.detection().max, 600);
  rec.on_link_toggle(1'500, 3, 1, LinkDirection::kIngress, /*fail=*/false);
  fp.observe_ingress(3, 1, true);
  fp.observe_ingress(3, 1, true);
  fp.end_epoch(rec, 2'000);
  EXPECT_EQ(rec.inclusions(), 1);
  EXPECT_EQ(rec.recovery().count, 1);
  EXPECT_EQ(rec.recovery().sum, 500);
  // A re-inclusion with no recorded repair counts, without a latency.
  fp.observe_egress(2, 0, true);
  fp.observe_egress(2, 0, true);
  fp.end_epoch(rec, 3'000);
  EXPECT_EQ(rec.inclusions(), 2);
  EXPECT_EQ(rec.recovery().count, 1);
  EXPECT_EQ(fp.excluded_count(), 0);
}

TEST(FaultPlane, MultiplePortsTrackedSeparately) {
  FaultPlane fp(2, 4, 2);
  ResilienceRecorder rec(2, 4);
  for (int i = 0; i < 2; ++i) {
    fp.observe_ingress(1, 0, false);
    fp.observe_ingress(1, 2, false);
    fp.observe_ingress(1, 1, true);
  }
  fp.end_epoch(rec, 0);
  EXPECT_TRUE(fp.rx_excluded(1, 0));
  EXPECT_FALSE(fp.rx_excluded(1, 1));
  EXPECT_TRUE(fp.rx_excluded(1, 2));
  EXPECT_EQ(fp.excluded_count(), 2);
}

}  // namespace
}  // namespace negotiator
