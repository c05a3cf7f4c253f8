#include "core/ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

namespace negotiator {
namespace {

RoundRobinRing make_ring(std::vector<TorId> members, std::uint64_t seed = 1) {
  Rng rng(seed);
  return RoundRobinRing(std::move(members), rng);
}

TEST(Ring, PicksOnlyEligible) {
  auto ring = make_ring({0, 1, 2, 3});
  const TorId picked = ring.pick([](TorId t) { return t == 2; });
  EXPECT_EQ(picked, 2);
}

TEST(Ring, ReturnsInvalidWhenNobodyEligible) {
  auto ring = make_ring({0, 1, 2});
  EXPECT_EQ(ring.pick([](TorId) { return false; }), kInvalidTor);
}

TEST(Ring, PointerAdvancesPastPick) {
  // RRM semantics: after granting, the pointer moves to the next member,
  // so the same eligible member set rotates fairly.
  auto ring = make_ring({0, 1, 2, 3});
  std::vector<TorId> order;
  for (int i = 0; i < 8; ++i) {
    order.push_back(ring.pick([](TorId) { return true; }));
  }
  // All members appear exactly twice, in rotating order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(i + 4)]);
  }
  std::set<TorId> first(order.begin(), order.begin() + 4);
  EXPECT_EQ(first.size(), 4u);
}

TEST(Ring, LeastRecentlyPickedWins) {
  auto ring = make_ring({0, 1, 2, 3});
  const TorId a = ring.pick([](TorId) { return true; });
  // With everyone eligible again, the previous winner must come last.
  std::vector<TorId> next;
  for (int i = 0; i < 4; ++i) next.push_back(ring.pick([](TorId) { return true; }));
  EXPECT_EQ(next.back(), a);
}

TEST(Ring, NoStarvationUnderContention) {
  // Two permanently eligible members alternate regardless of others.
  auto ring = make_ring({0, 1, 2, 3, 4, 5, 6, 7});
  int count3 = 0, count6 = 0;
  for (int i = 0; i < 100; ++i) {
    const TorId p = ring.pick([](TorId t) { return t == 3 || t == 6; });
    if (p == 3) ++count3;
    if (p == 6) ++count6;
  }
  EXPECT_EQ(count3, 50);
  EXPECT_EQ(count6, 50);
}

TEST(Ring, RandomInitialPointerVariesWithSeed) {
  std::set<std::size_t> pointers;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed);
    RoundRobinRing ring(std::vector<TorId>{0, 1, 2, 3, 4, 5, 6, 7}, rng);
    pointers.insert(ring.pointer());
  }
  EXPECT_GT(pointers.size(), 3u) << "pointers should be randomly initialized";
}

TEST(Ring, SingleMemberRing) {
  auto ring = make_ring({5});
  EXPECT_EQ(ring.pick([](TorId) { return true; }), 5);
  EXPECT_EQ(ring.pick([](TorId) { return true; }), 5);
}

TEST(Ring, EmptyRingNeverPicksAndDrawsNothing) {
  // A thin-clos ToR's own-block ring is empty when every block holds one
  // ToR; it must exist without consuming the shared RNG stream.
  Rng rng(7);
  Rng reference(7);
  RoundRobinRing ring(std::vector<TorId>{}, rng);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pick([](TorId) { return true; }), kInvalidTor);
  EXPECT_EQ(ring.pick_among(std::vector<TorId>{0, 1, 2}), kInvalidTor);
  EXPECT_EQ(ring.pointer(), 0u);
  EXPECT_EQ(rng.next_u64(), reference.next_u64());
}

TEST(Ring, PickAmongMatchesPickOnRandomRanges) {
  // Rings are ascending ranges with at most one hole (rx_sources /
  // tx_destinations minus self). Over random ranges, holes and candidate
  // lists with non-members, duplicates and out-of-range ids, pick_among
  // must choose exactly what pick does with "is a candidate" eligibility
  // and leave the pointer in the same place.
  Rng driver(20261);
  for (int trial = 0; trial < 500; ++trial) {
    const auto lo = static_cast<TorId>(driver.next_below(40));
    const auto span = static_cast<TorId>(1 + driver.next_below(40));
    const bool with_hole = span > 2 && driver.next_below(2) == 0;
    const TorId hole =
        with_hole ? static_cast<TorId>(lo + 1 + driver.next_below(span - 2))
                  : kInvalidTor;
    std::vector<TorId> members;
    for (TorId t = lo; t < lo + span; ++t) {
      if (t != hole) members.push_back(t);
    }
    const auto seed = static_cast<std::uint64_t>(trial) + 1;
    Rng rng_fast(seed);
    Rng rng_ref(seed);
    RoundRobinRing fast(members, rng_fast);
    RoundRobinRing ref(members, rng_ref);
    ASSERT_EQ(fast.size(), members.size());
    ASSERT_EQ(fast.pointer(), ref.pointer());
    for (int round = 0; round < 20; ++round) {
      std::vector<TorId> candidates;
      const auto count = driver.next_below(8);
      for (std::int64_t i = 0; i < count; ++i) {
        // Ids from well below the range to well above it, including
        // negatives and the hole.
        candidates.push_back(
            static_cast<TorId>(driver.next_below(lo + span + 20) - 10));
        if (driver.next_below(4) == 0) candidates.push_back(candidates.back());
      }
      auto is_candidate = [&](TorId id) {
        for (const TorId c : candidates) {
          if (c == id) return true;
        }
        return false;
      };
      // Independent model: walk the member list clockwise from the
      // pointer.
      TorId model = kInvalidTor;
      for (std::size_t step = 0; step < members.size(); ++step) {
        const TorId m = members[(ref.pointer() + step) % members.size()];
        if (is_candidate(m)) {
          model = m;
          break;
        }
      }
      const TorId want = ref.pick(is_candidate);
      ASSERT_EQ(want, model) << "trial " << trial << " round " << round;
      const TorId got = fast.pick_among(candidates);
      ASSERT_EQ(got, want) << "trial " << trial << " round " << round;
      ASSERT_EQ(fast.pointer(), ref.pointer())
          << "trial " << trial << " round " << round;
    }
  }
}

TEST(RingDeathTest, RejectsMembersThatAreNotARangeMinusOneId) {
  EXPECT_DEATH(make_ring({0, 1, 3, 4, 6}), "ascending range");  // two holes
  EXPECT_DEATH(make_ring({0, 3}), "ascending range");           // wide hole
  EXPECT_DEATH(make_ring({2, 1, 0}), "ascending range");        // descending
  EXPECT_DEATH(make_ring({0, 1, 1, 2}), "ascending range");     // duplicate
}

}  // namespace
}  // namespace negotiator
