#include "core/matching.h"

#include <gtest/gtest.h>

#include <set>

#include "topo/topology.h"

namespace negotiator {
namespace {

std::vector<RequestMsg> requests_from(std::initializer_list<TorId> srcs) {
  std::vector<RequestMsg> out;
  for (TorId s : srcs) {
    RequestMsg r;
    r.src = s;
    r.size = 10'000;
    out.push_back(r);
  }
  return out;
}

std::vector<bool> all_true(int n) { return std::vector<bool>(n, true); }

TEST(MatchingGrant, ParallelAllocatesEveryPortUnderContention) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(1);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  const auto result =
      eng.grant(0, requests_from({1, 2, 3, 4, 5, 6, 7}), all_true(4), 33'450);
  EXPECT_EQ(result.grants.size(), 4u);
  std::set<PortId> ports;
  std::set<TorId> srcs;
  for (const auto& [src, g] : result.grants) {
    EXPECT_EQ(g.dst, 0);
    ports.insert(g.rx_port);
    srcs.insert(src);
  }
  EXPECT_EQ(ports.size(), 4u) << "each port granted once";
  EXPECT_EQ(srcs.size(), 4u) << "distinct sources under contention";
}

TEST(MatchingGrant, ParallelMultiGrantsWhenRequestersScarce) {
  // Fig. 3a: with 2 requesters and 4 ports, each source gets 2 ports.
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(2);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  const auto result =
      eng.grant(0, requests_from({1, 3}), all_true(4), 33'450);
  EXPECT_EQ(result.grants.size(), 4u);
  int to1 = 0, to3 = 0;
  for (const auto& [src, g] : result.grants) {
    if (src == 1) ++to1;
    if (src == 3) ++to3;
  }
  EXPECT_EQ(to1, 2);
  EXPECT_EQ(to3, 2);
}

TEST(MatchingGrant, RespectsPortEligibility) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(3);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  std::vector<bool> eligible{true, false, true, false};
  const auto result =
      eng.grant(0, requests_from({1, 2, 3}), eligible, 33'450);
  EXPECT_EQ(result.grants.size(), 2u);
  for (const auto& [src, g] : result.grants) {
    EXPECT_TRUE(g.rx_port == 0 || g.rx_port == 2);
  }
  EXPECT_FALSE(result.port_used[1]);
  EXPECT_FALSE(result.port_used[3]);
}

TEST(MatchingGrant, NoRequestsNoGrants) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(4);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  EXPECT_TRUE(eng.grant(0, {}, all_true(4), 33'450).grants.empty());
}

TEST(MatchingGrant, ThinClosOnlyGroupSourcesPerPort) {
  // 16 ToRs, 4 ports, block size 4: rx port g hears sources 4g..4g+3.
  const FlatTopology topo(TopologyKind::kThinClos, 16, 4);
  Rng rng(5);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  // Requests from group 0 (ToRs 1,2) and group 2 (ToR 9).
  const auto result =
      eng.grant(0, requests_from({1, 2, 9}), all_true(4), 33'450);
  EXPECT_EQ(result.grants.size(), 2u) << "one per non-empty group port";
  for (const auto& [src, g] : result.grants) {
    EXPECT_EQ(g.rx_port, src / 4) << "grant pinned to the source's group";
  }
}

TEST(MatchingAccept, OneGrantPerPort) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(6);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  // Three destinations all granted our port 2.
  std::vector<GrantMsg> grants;
  for (TorId d : {1, 2, 3}) {
    GrantMsg g;
    g.dst = d;
    g.rx_port = 2;
    grants.push_back(g);
  }
  const auto result = eng.accept(0, grants, all_true(4));
  ASSERT_EQ(result.matches.size(), 1u);
  EXPECT_EQ(result.matches[0].tx_port, 2);
  EXPECT_TRUE(result.port_used[2]);
}

TEST(MatchingAccept, DifferentPlanesAllAccepted) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(7);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  std::vector<GrantMsg> grants;
  for (PortId p = 0; p < 4; ++p) {
    GrantMsg g;
    g.dst = static_cast<TorId>(p + 1);
    g.rx_port = p;
    grants.push_back(g);
  }
  const auto result = eng.accept(0, grants, all_true(4));
  EXPECT_EQ(result.matches.size(), 4u);
}

TEST(MatchingAccept, SameDstMayWinMultiplePlanes) {
  // §3.6.5: data for one pair can flow through several ports at once.
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(8);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  std::vector<GrantMsg> grants;
  for (PortId p = 0; p < 3; ++p) {
    GrantMsg g;
    g.dst = 5;
    g.rx_port = p;
    grants.push_back(g);
  }
  const auto result = eng.accept(0, grants, all_true(4));
  EXPECT_EQ(result.matches.size(), 3u);
  for (const Match& m : result.matches) EXPECT_EQ(m.dst, 5);
}

TEST(MatchingAccept, ThinClosPinsTxPort) {
  const FlatTopology topo(TopologyKind::kThinClos, 16, 4);
  Rng rng(9);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  GrantMsg g;
  g.dst = 9;  // block 2
  g.rx_port = 0;
  const std::vector<GrantMsg> grants{g};
  const auto result = eng.accept(1, grants, all_true(4));
  ASSERT_EQ(result.matches.size(), 1u);
  EXPECT_EQ(result.matches[0].tx_port, 2);
}

TEST(MatchingAccept, RespectsTxEligibility) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(10);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  GrantMsg g;
  g.dst = 1;
  g.rx_port = 2;
  std::vector<bool> eligible{true, true, false, true};
  const std::vector<GrantMsg> grants{g};
  EXPECT_TRUE(eng.accept(0, grants, eligible).matches.empty());
}

TEST(MatchingPolicy, LargestSizeWinsPorts) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(11);
  MatchingEngine eng(topo, SelectionPolicy::kLargestSize, rng);
  std::vector<RequestMsg> reqs;
  RequestMsg small;
  small.src = 1;
  small.size = 1'000;
  RequestMsg big;
  big.src = 2;
  big.size = 1'000'000;
  reqs.push_back(small);
  reqs.push_back(big);
  const auto result = eng.grant(0, reqs, all_true(4), 33'450);
  int big_ports = 0;
  for (const auto& [src, g] : result.grants) {
    if (src == 2) ++big_ports;
  }
  // Big backlog absorbs several ports before the small one gets any.
  EXPECT_GE(big_ports, 3);
}

TEST(MatchingPolicy, LargestSizeDecrementsByEpochCapacity) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(12);
  MatchingEngine eng(topo, SelectionPolicy::kLargestSize, rng);
  std::vector<RequestMsg> reqs;
  RequestMsg a;
  a.src = 1;
  a.size = 40'000;
  RequestMsg b;
  b.src = 2;
  b.size = 35'000;
  reqs.push_back(a);
  reqs.push_back(b);
  // capacity 33450: after one port each both are nearly drained; ports
  // alternate rather than piling onto source 1.
  const auto result = eng.grant(0, reqs, all_true(4), 33'450);
  int to1 = 0, to2 = 0;
  for (const auto& [src, g] : result.grants) {
    if (src == 1) ++to1;
    if (src == 2) ++to2;
  }
  EXPECT_EQ(to1 + to2, 4);
  EXPECT_EQ(to1, 2);
  EXPECT_EQ(to2, 2);
}

TEST(MatchingPolicy, LongestDelayPrefersOldest) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(13);
  MatchingEngine eng(topo, SelectionPolicy::kLongestDelay, rng);
  std::vector<RequestMsg> reqs;
  for (TorId s : {1, 2, 3}) {
    RequestMsg r;
    r.src = s;
    r.weighted_delay = s * 100;
    reqs.push_back(r);
  }
  const auto result = eng.grant(0, reqs, all_true(4), 33'450);
  // First grant must go to the longest-waiting source (3).
  ASSERT_FALSE(result.grants.empty());
  EXPECT_EQ(result.grants[0].first, 3);
  // Everyone is granted once before anyone twice (4th port wraps).
  std::set<TorId> first_three;
  for (int i = 0; i < 3; ++i) first_three.insert(result.grants[i].first);
  EXPECT_EQ(first_three.size(), 3u);
}

TEST(MatchingPolicy, LongestDelayAcceptPicksMaxDelayGrant) {
  const FlatTopology topo(TopologyKind::kParallel, 8, 4);
  Rng rng(14);
  MatchingEngine eng(topo, SelectionPolicy::kLongestDelay, rng);
  std::vector<GrantMsg> grants;
  for (TorId d : {1, 2, 3}) {
    GrantMsg g;
    g.dst = d;
    g.rx_port = 0;
    g.weighted_delay = d == 2 ? 999 : 10;
    grants.push_back(g);
  }
  const auto result = eng.accept(0, grants, all_true(4));
  ASSERT_EQ(result.matches.size(), 1u);
  EXPECT_EQ(result.matches[0].dst, 2);
}

}  // namespace
}  // namespace negotiator
