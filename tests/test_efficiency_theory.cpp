// §3.2.2 matching-efficiency theory: E[Y] = 1 - (1 - 1/n)^n, validated
// against a direct Monte-Carlo of the random grant/accept model and
// against the MatchingEngine itself under saturation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/matching.h"
#include "topo/topology.h"

namespace negotiator {
namespace {

double theory(int n) { return 1.0 - std::pow(1.0 - 1.0 / n, n); }

TEST(EfficiencyTheory, ClosedFormValues) {
  // Paper's quoted numbers: n=128 -> 0.634, n=16 -> 0.644.
  EXPECT_NEAR(theory(128), 0.634, 0.001);
  EXPECT_NEAR(theory(16), 0.644, 0.001);
  // Monotone decreasing towards 1 - 1/e.
  EXPECT_GT(theory(2), theory(8));
  EXPECT_GT(theory(8), theory(1024));
  EXPECT_NEAR(theory(1'000'000), 1.0 - 1.0 / std::exp(1.0), 1e-5);
}

TEST(EfficiencyTheory, MonteCarloModelMatchesClosedForm) {
  // Simulate the §3.2.2 model directly: n ToRs, m ports, uniform grants,
  // uniform accepts; measure the acceptance probability of a tagged grant.
  Rng rng(7);
  for (int n : {8, 32, 128}) {
    const int m = 8;
    const int trials = 20'000;
    int accepted = 0;
    for (int t = 0; t < trials; ++t) {
      // grant0 targets port0. Competing grants: each of the other n-1
      // destinations independently includes port0 with probability 1/n.
      int competitors = 0;
      for (int k = 0; k < n - 1; ++k) {
        if (rng.next_double() < 1.0 / n) ++competitors;
      }
      // port0 accepts uniformly among the competing grants.
      if (rng.next_below(competitors + 1) == 0) ++accepted;
    }
    (void)m;
    const double measured = static_cast<double>(accepted) / trials;
    EXPECT_NEAR(measured, theory(n), 0.02) << "n=" << n;
  }
}

TEST(EfficiencyTheory, MatchingEngineSaturatedRatioNearTheory) {
  // Drive grant+accept under full contention and compare accepts/grants to
  // E[Y] (the Fig. 14 match ratio).
  const int n = 64;
  const int ports = 8;
  const FlatTopology topo(TopologyKind::kParallel, n, ports);
  Rng rng(11);
  MatchingEngine eng(topo, SelectionPolicy::kRoundRobin, rng);
  const std::vector<bool> eligible(ports, true);
  std::size_t grants_total = 0, accepts_total = 0;
  for (int round = 0; round < 60; ++round) {
    std::vector<std::vector<GrantMsg>> grants_by_src(
        static_cast<std::size_t>(n));
    for (TorId d = 0; d < n; ++d) {
      std::vector<RequestMsg> reqs;
      for (TorId s = 0; s < n; ++s) {
        if (s == d) continue;
        RequestMsg r;
        r.src = s;
        reqs.push_back(r);
      }
      auto res = eng.grant(d, reqs, eligible, 33'450);
      grants_total += res.grants.size();
      for (auto& [src, g] : res.grants) {
        grants_by_src[static_cast<std::size_t>(src)].push_back(g);
      }
    }
    for (TorId s = 0; s < n; ++s) {
      auto res =
          eng.accept(s, grants_by_src[static_cast<std::size_t>(s)], eligible);
      accepts_total += res.matches.size();
    }
  }
  const double ratio =
      static_cast<double>(accepts_total) / static_cast<double>(grants_total);
  EXPECT_NEAR(ratio, theory(n), 0.05);
}

}  // namespace
}  // namespace negotiator
