#include "topo/link_state.h"

#include <gtest/gtest.h>

namespace negotiator {
namespace {

TEST(LinkState, AllUpInitially) {
  LinkState links(4, 2);
  EXPECT_EQ(links.failed_count(), 0);
  EXPECT_EQ(links.total_links(), 16);
  EXPECT_TRUE(links.is_up(0, 0, LinkDirection::kEgress));
  EXPECT_TRUE(links.is_up(1, 1, LinkDirection::kIngress));
}

TEST(LinkState, EgressFailureBreaksOnlyOutboundPaths) {
  LinkState links(4, 2);
  links.fail(0, 1, LinkDirection::kEgress);
  EXPECT_FALSE(links.is_up(0, 1, LinkDirection::kEgress));
  EXPECT_TRUE(links.is_up(0, 0, LinkDirection::kEgress))
      << "other port unaffected";
  EXPECT_TRUE(links.is_up(0, 1, LinkDirection::kIngress))
      << "ingress direction unaffected";
}

TEST(LinkState, IngressFailureBreaksOnlyInboundPaths) {
  LinkState links(4, 2);
  links.fail(3, 0, LinkDirection::kIngress);
  EXPECT_FALSE(links.is_up(3, 0, LinkDirection::kIngress));
  EXPECT_TRUE(links.is_up(3, 1, LinkDirection::kIngress));
  EXPECT_TRUE(links.is_up(3, 0, LinkDirection::kEgress))
      << "egress of same port unaffected";
}

TEST(LinkState, RepairRestores) {
  LinkState links(2, 1);
  links.fail(0, 0, LinkDirection::kEgress);
  EXPECT_EQ(links.failed_count(), 1);
  links.repair(0, 0, LinkDirection::kEgress);
  EXPECT_EQ(links.failed_count(), 0);
  EXPECT_TRUE(links.is_up(0, 0, LinkDirection::kEgress));
}

TEST(LinkState, FailIsIdempotent) {
  LinkState links(2, 1);
  links.fail(0, 0, LinkDirection::kIngress);
  links.fail(0, 0, LinkDirection::kIngress);
  EXPECT_EQ(links.failed_count(), 1);
  links.repair(0, 0, LinkDirection::kIngress);
  links.repair(0, 0, LinkDirection::kIngress);
  EXPECT_EQ(links.failed_count(), 0);
}

}  // namespace
}  // namespace negotiator
