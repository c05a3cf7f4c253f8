// Property-style sweeps over topologies, shapes, seeds and request
// densities: the end-to-end GRANT->ACCEPT composition must always produce a
// physically realizable, conflict-free matching. Realizability is checked
// against the AWGR wavelength-routing model itself.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "core/matching.h"
#include "topo/awgr.h"
#include "topo/topology.h"

namespace negotiator {
namespace {

struct Shape {
  TopologyKind kind;
  int tors;
  int ports;
  double request_density;  // probability a pair requests
  std::uint64_t seed;
};

class MatchingPropertyTest : public ::testing::TestWithParam<Shape> {
 protected:
  FlatTopology make() const {
    const Shape& s = GetParam();
    return FlatTopology(s.kind, s.tors, s.ports);
  }
};

TEST_P(MatchingPropertyTest, EndToEndMatchingIsConflictFree) {
  const Shape& shape = GetParam();
  const FlatTopology topo = make();
  Rng rng(shape.seed);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);

  for (int round = 0; round < 20; ++round) {
    // Random binary demand.
    std::vector<std::vector<RequestMsg>> requests_by_dst(
        static_cast<std::size_t>(shape.tors));
    for (TorId s = 0; s < shape.tors; ++s) {
      for (TorId d = 0; d < shape.tors; ++d) {
        if (s == d) continue;
        if (rng.next_double() < shape.request_density) {
          RequestMsg r;
          r.src = s;
          requests_by_dst[static_cast<std::size_t>(d)].push_back(r);
        }
      }
    }
    // GRANT at every destination.
    std::vector<std::vector<GrantMsg>> grants_by_src(
        static_cast<std::size_t>(shape.tors));
    const std::vector<bool> eligible(static_cast<std::size_t>(shape.ports),
                                     true);
    for (TorId d = 0; d < shape.tors; ++d) {
      auto result = eng.grant(
          d, requests_by_dst[static_cast<std::size_t>(d)], eligible, 33'450);
      std::set<PortId> ports;
      for (auto& [src, g] : result.grants) {
        EXPECT_TRUE(ports.insert(g.rx_port).second)
            << "destination granted one rx port twice";
        grants_by_src[static_cast<std::size_t>(src)].push_back(g);
      }
    }
    // ACCEPT at every source; collect the global matching.
    std::vector<Match> matches;
    for (TorId s = 0; s < shape.tors; ++s) {
      auto result =
          eng.accept(s, grants_by_src[static_cast<std::size_t>(s)], eligible);
      for (const Match& m : result.matches) matches.push_back(m);
    }

    // Property 1: no tx port and no rx port is used twice.
    std::set<std::pair<TorId, PortId>> tx_used, rx_used;
    for (const Match& m : matches) {
      EXPECT_TRUE(tx_used.insert({m.src, m.tx_port}).second)
          << "tx conflict at ToR " << m.src;
      EXPECT_TRUE(rx_used.insert({m.dst, m.rx_port}).second)
          << "rx conflict at ToR " << m.dst;
    }

    // Property 2: every match respects topology reachability.
    for (const Match& m : matches) {
      EXPECT_TRUE(topo.reachable(m.src, m.tx_port, m.dst));
      EXPECT_EQ(topo.rx_port(m.src, m.tx_port), m.rx_port);
    }

    // Property 3: the matching is physically realizable on the AWGRs —
    // assign each match its wavelength and verify no collision.
    if (shape.kind == TopologyKind::kParallel) {
      // One AWGR per plane; ToR t occupies input/output t.
      std::vector<Awgr> planes(static_cast<std::size_t>(shape.ports),
                               Awgr(shape.tors));
      for (const Match& m : matches) {
        Awgr& awgr = planes[static_cast<std::size_t>(m.tx_port)];
        EXPECT_TRUE(awgr.try_connect(m.src, m.dst))
            << "AWGR collision on plane " << m.tx_port;
      }
    } else {
      // AWGR (tx_block, src_group): input = src % B, output = dst % B.
      const int block = shape.tors / shape.ports;
      std::map<std::pair<int, int>, Awgr> awgrs;
      for (const Match& m : matches) {
        const auto key = std::make_pair(static_cast<int>(m.tx_port),
                                        static_cast<int>(m.src / block));
        auto [it, inserted] = awgrs.try_emplace(key, Awgr(block));
        EXPECT_TRUE(it->second.try_connect(m.src % block, m.dst % block))
            << "thin-clos AWGR collision";
      }
    }

    // Property 4: matches only answer actual requests.
    for (const Match& m : matches) {
      bool requested = false;
      for (const RequestMsg& r :
           requests_by_dst[static_cast<std::size_t>(m.dst)]) {
        if (r.src == m.src) requested = true;
      }
      EXPECT_TRUE(requested) << "grant invented out of thin air";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatchingPropertyTest,
    ::testing::Values(
        Shape{TopologyKind::kParallel, 128, 8, 0.9, 1},
        Shape{TopologyKind::kParallel, 128, 8, 0.05, 2},
        Shape{TopologyKind::kParallel, 16, 4, 0.5, 3},
        Shape{TopologyKind::kParallel, 8, 2, 1.0, 4},
        Shape{TopologyKind::kThinClos, 128, 8, 0.9, 5},
        Shape{TopologyKind::kThinClos, 128, 8, 0.05, 6},
        Shape{TopologyKind::kThinClos, 16, 4, 0.5, 7},
        Shape{TopologyKind::kThinClos, 64, 4, 1.0, 8},
        Shape{TopologyKind::kParallel, 32, 8, 0.3, 9},
        Shape{TopologyKind::kThinClos, 32, 8, 0.3, 10}));

}  // namespace
}  // namespace negotiator
