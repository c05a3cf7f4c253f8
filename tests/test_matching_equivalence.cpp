// Equivalence property: the dense-indexed MatchingEngine must make
// byte-identical grant/accept picks to the straightforward reference
// implementation (the pre-optimization linear-scan code), on randomized
// request sets, across all three selection policies and both topologies.
//
// The reference below is a faithful transcription of the original
// algorithm: linear `w.src == member` rescans inside the ring pick,
// per-check `eligible_for_port` derivations through fixed_tx_port, and
// vector-of-vectors grant grouping. Both engines are constructed from
// identically seeded RNGs, so their rings start at the same pointers and
// must stay in lockstep.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/matching.h"
#include "topo/topology.h"

namespace negotiator {
namespace {

class ReferenceEngine {
 public:
  ReferenceEngine(const FlatTopology& topo, SelectionPolicy policy, Rng& rng)
      : topo_(topo), policy_(policy) {
    const int n = topo_.num_tors();
    const int s = topo_.ports_per_tor();
    if (topo_.kind() == TopologyKind::kParallel) {
      for (TorId d = 0; d < n; ++d) {
        grant_rings_.emplace_back(topo_.rx_sources(d, 0), rng);
      }
    } else {
      for (TorId d = 0; d < n; ++d) {
        for (PortId p = 0; p < s; ++p) {
          grant_rings_.emplace_back(topo_.rx_sources(d, p), rng);
        }
      }
    }
    for (TorId t = 0; t < n; ++t) {
      for (PortId p = 0; p < s; ++p) {
        accept_rings_.emplace_back(topo_.tx_destinations(t, p), rng);
      }
    }
  }

  MatchingEngine::GrantResult grant(TorId dst,
                                    const std::vector<RequestMsg>& requests,
                                    const std::vector<bool>& rx_eligible,
                                    Bytes epoch_capacity) {
    const int ports = topo_.ports_per_tor();
    MatchingEngine::GrantResult out;
    out.port_used.assign(static_cast<std::size_t>(ports), false);
    if (requests.empty()) return out;

    struct Work {
      TorId src;
      Bytes remaining;
      Nanos delay;
      bool granted_round;
    };
    std::vector<Work> work;
    for (const RequestMsg& r : requests) {
      work.push_back(Work{r.src, std::max<Bytes>(r.size, 1),
                          r.weighted_delay, false});
    }
    auto eligible_for_port = [&](TorId src, PortId p) {
      if (topo_.kind() == TopologyKind::kParallel) return true;
      return topo_.rx_port(src, topo_.fixed_tx_port(src, dst)) == p;
    };

    for (PortId p = 0; p < ports; ++p) {
      if (!rx_eligible[static_cast<std::size_t>(p)]) continue;
      Work* chosen = nullptr;
      switch (policy_) {
        case SelectionPolicy::kRoundRobin: {
          const TorId picked = grant_ring(dst, p).pick([&](TorId member) {
            if (!eligible_for_port(member, p)) return false;
            for (const Work& w : work) {
              if (w.src == member) return true;
            }
            return false;
          });
          if (picked != kInvalidTor) {
            for (Work& w : work) {
              if (w.src == picked) {
                chosen = &w;
                break;
              }
            }
          }
          break;
        }
        case SelectionPolicy::kLargestSize: {
          for (Work& w : work) {
            if (w.remaining <= 0 || !eligible_for_port(w.src, p)) continue;
            if (chosen == nullptr || w.remaining > chosen->remaining) {
              chosen = &w;
            }
          }
          if (chosen != nullptr) {
            chosen->remaining -= std::max<Bytes>(epoch_capacity, 1);
          }
          break;
        }
        case SelectionPolicy::kLongestDelay: {
          auto pick_round = [&]() -> Work* {
            Work* best = nullptr;
            for (Work& w : work) {
              if (w.granted_round || !eligible_for_port(w.src, p)) continue;
              if (best == nullptr || w.delay > best->delay) best = &w;
            }
            return best;
          };
          chosen = pick_round();
          if (chosen == nullptr) {
            for (Work& w : work) w.granted_round = false;
            chosen = pick_round();
          }
          if (chosen != nullptr) chosen->granted_round = true;
          break;
        }
      }
      if (chosen == nullptr) continue;
      GrantMsg g;
      g.dst = dst;
      g.rx_port = p;
      g.weighted_delay = chosen->delay;
      out.grants.emplace_back(chosen->src, g);
      out.port_used[static_cast<std::size_t>(p)] = true;
    }
    return out;
  }

  MatchingEngine::AcceptResult accept(TorId src,
                                      const std::vector<GrantMsg>& grants,
                                      const std::vector<bool>& tx_eligible) {
    const int ports = topo_.ports_per_tor();
    MatchingEngine::AcceptResult out;
    out.port_used.assign(static_cast<std::size_t>(ports), false);
    if (grants.empty()) return out;

    std::vector<std::vector<const GrantMsg*>> by_port(
        static_cast<std::size_t>(ports));
    for (const GrantMsg& g : grants) {
      const PortId tx = topo_.kind() == TopologyKind::kParallel
                            ? g.rx_port
                            : topo_.fixed_tx_port(src, g.dst);
      by_port[static_cast<std::size_t>(tx)].push_back(&g);
    }

    for (PortId p = 0; p < ports; ++p) {
      if (!tx_eligible[static_cast<std::size_t>(p)]) continue;
      const auto& candidates = by_port[static_cast<std::size_t>(p)];
      if (candidates.empty()) continue;
      const GrantMsg* chosen = nullptr;
      if (policy_ == SelectionPolicy::kLongestDelay) {
        for (const GrantMsg* g : candidates) {
          if (chosen == nullptr ||
              g->weighted_delay > chosen->weighted_delay) {
            chosen = g;
          }
        }
      } else {
        const TorId picked = accept_ring(src, p).pick([&](TorId member) {
          for (const GrantMsg* g : candidates) {
            if (g->dst == member) return true;
          }
          return false;
        });
        if (picked != kInvalidTor) {
          for (const GrantMsg* g : candidates) {
            if (g->dst == picked) {
              chosen = g;
              break;
            }
          }
        }
      }
      if (chosen == nullptr) continue;
      Match m;
      m.src = src;
      m.tx_port = p;
      m.dst = chosen->dst;
      m.rx_port = chosen->rx_port;
      out.matches.push_back(m);
      out.port_used[static_cast<std::size_t>(p)] = true;
    }
    return out;
  }

 private:
  RoundRobinRing& grant_ring(TorId dst, PortId rx) {
    if (topo_.kind() == TopologyKind::kParallel) {
      return grant_rings_[static_cast<std::size_t>(dst)];
    }
    return grant_rings_[static_cast<std::size_t>(dst) *
                            topo_.ports_per_tor() +
                        rx];
  }
  RoundRobinRing& accept_ring(TorId src, PortId tx) {
    return accept_rings_[static_cast<std::size_t>(src) *
                             topo_.ports_per_tor() +
                         tx];
  }

  const FlatTopology& topo_;
  SelectionPolicy policy_;
  std::vector<RoundRobinRing> grant_rings_;
  std::vector<RoundRobinRing> accept_rings_;
};

bool same_grant(const MatchingEngine::GrantResult& a,
                const MatchingEngine::GrantResult& b) {
  if (a.port_used != b.port_used) return false;
  if (a.grants.size() != b.grants.size()) return false;
  for (std::size_t i = 0; i < a.grants.size(); ++i) {
    const auto& [src_a, g_a] = a.grants[i];
    const auto& [src_b, g_b] = b.grants[i];
    if (src_a != src_b || g_a.dst != g_b.dst || g_a.rx_port != g_b.rx_port ||
        g_a.weighted_delay != g_b.weighted_delay || g_a.relay != g_b.relay ||
        g_a.relay_final_dst != g_b.relay_final_dst ||
        g_a.relay_volume != g_b.relay_volume) {
      return false;
    }
  }
  return true;
}

bool same_accept(const MatchingEngine::AcceptResult& a,
                 const MatchingEngine::AcceptResult& b) {
  if (a.port_used != b.port_used) return false;
  if (a.matches.size() != b.matches.size()) return false;
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    const Match& m_a = a.matches[i];
    const Match& m_b = b.matches[i];
    if (m_a.src != m_b.src || m_a.tx_port != m_b.tx_port ||
        m_a.dst != m_b.dst || m_a.rx_port != m_b.rx_port ||
        m_a.relay != m_b.relay ||
        m_a.relay_final_dst != m_b.relay_final_dst ||
        m_a.relay_volume != m_b.relay_volume) {
      return false;
    }
  }
  return true;
}

void run_equivalence(const FlatTopology& topo, SelectionPolicy policy,
                     std::uint64_t seed) {
  Rng rng_dense(seed);
  Rng rng_ref(seed);
  MatchingEngine dense(topo, policy, rng_dense);
  ReferenceEngine ref(topo, policy, rng_ref);

  const int n = topo.num_tors();
  const int ports = topo.ports_per_tor();
  Rng driver(seed ^ 0x9e3779b97f4a7c15ULL);
  const Bytes capacity = 33'450;

  for (int epoch = 0; epoch < 40; ++epoch) {
    // Randomized request sets: each (src, dst) pair requests with p=1/3,
    // with random sizes and delays; random port eligibility masks.
    std::vector<std::vector<GrantMsg>> grants_by_src(
        static_cast<std::size_t>(n));
    for (TorId d = 0; d < n; ++d) {
      std::vector<RequestMsg> requests;
      for (TorId s = 0; s < n; ++s) {
        if (s == d || driver.next_below(3) != 0) continue;
        RequestMsg r;
        r.src = s;
        r.size = 1 + driver.next_below(1'000'000);
        r.weighted_delay = driver.next_below(50'000);
        requests.push_back(r);
      }
      std::vector<bool> rx_eligible;
      for (PortId p = 0; p < ports; ++p) {
        rx_eligible.push_back(driver.next_below(8) != 0);
      }
      const auto got = dense.grant(d, requests, rx_eligible, capacity);
      const auto want = ref.grant(d, requests, rx_eligible, capacity);
      ASSERT_TRUE(same_grant(got, want))
          << "grant diverged at epoch " << epoch << " dst " << d;
      for (const auto& [src, g] : got.grants) {
        grants_by_src[static_cast<std::size_t>(src)].push_back(g);
      }
    }
    for (TorId s = 0; s < n; ++s) {
      const auto& grants = grants_by_src[static_cast<std::size_t>(s)];
      std::vector<bool> tx_eligible;
      for (PortId p = 0; p < ports; ++p) {
        tx_eligible.push_back(driver.next_below(8) != 0);
      }
      const auto got = dense.accept(s, grants, tx_eligible);
      const auto want = ref.accept(s, grants, tx_eligible);
      ASSERT_TRUE(same_accept(got, want))
          << "accept diverged at epoch " << epoch << " src " << s;
    }
  }
}

TEST(MatchingEquivalence, ParallelRoundRobin) {
  const FlatTopology topo(TopologyKind::kParallel, 16, 4);
  run_equivalence(topo, SelectionPolicy::kRoundRobin, 1);
}

TEST(MatchingEquivalence, ParallelLargestSize) {
  const FlatTopology topo(TopologyKind::kParallel, 16, 4);
  run_equivalence(topo, SelectionPolicy::kLargestSize, 2);
}

TEST(MatchingEquivalence, ParallelLongestDelay) {
  const FlatTopology topo(TopologyKind::kParallel, 16, 4);
  run_equivalence(topo, SelectionPolicy::kLongestDelay, 3);
}

TEST(MatchingEquivalence, ThinClosRoundRobin) {
  const FlatTopology topo(TopologyKind::kThinClos, 16, 4);
  run_equivalence(topo, SelectionPolicy::kRoundRobin, 4);
}

TEST(MatchingEquivalence, ThinClosLargestSize) {
  const FlatTopology topo(TopologyKind::kThinClos, 16, 4);
  run_equivalence(topo, SelectionPolicy::kLargestSize, 5);
}

TEST(MatchingEquivalence, ThinClosLongestDelay) {
  const FlatTopology topo(TopologyKind::kThinClos, 16, 4);
  run_equivalence(topo, SelectionPolicy::kLongestDelay, 6);
}

TEST(MatchingEquivalence, LargerParallelFabric) {
  const FlatTopology topo(TopologyKind::kParallel, 32, 8);
  run_equivalence(topo, SelectionPolicy::kRoundRobin, 7);
}

}  // namespace
}  // namespace negotiator
