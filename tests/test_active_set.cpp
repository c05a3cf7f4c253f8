#include "common/active_set.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <vector>

#include "common/rng.h"

namespace negotiator {
namespace {

std::vector<TorId> members(const ActiveSet& set) {
  return std::vector<TorId>(set.begin(), set.end());
}

/// Checks every observer of `set` against the reference `ref`, probing
/// successor queries from each id in [-2, probe_end).
void expect_matches(const ActiveSet& set, const std::set<TorId>& ref,
                    TorId probe_end) {
  ASSERT_EQ(set.size(), ref.size());
  ASSERT_EQ(set.empty(), ref.empty());
  ASSERT_EQ(members(set), std::vector<TorId>(ref.begin(), ref.end()));
  ASSERT_EQ(set.first_member(), ref.empty() ? kInvalidTor : *ref.begin());
  for (TorId id = -2; id < probe_end; ++id) {
    ASSERT_EQ(set.contains(id), ref.count(id) == 1) << "id " << id;
    const auto next = ref.upper_bound(id);
    ASSERT_EQ(set.next_member_after(id),
              next == ref.end() ? kInvalidTor : *next)
        << "id " << id;
  }
}

TEST(ActiveSet, SortedViewAndMembership) {
  ActiveSet set(8);
  set.insert(5);
  set.insert(2);
  set.insert(7);
  set.insert(2);  // duplicate is a no-op
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(2));
  EXPECT_FALSE(set.contains(3));
  EXPECT_EQ(members(set), (std::vector<TorId>{2, 5, 7}));
  set.erase(5);
  set.erase(5);  // absent: a no-op
  EXPECT_FALSE(set.contains(5));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(members(set), (std::vector<TorId>{2, 7}));
}

TEST(ActiveSet, SuccessorQueriesScanTheBitmap) {
  ActiveSet set(16);
  for (TorId t : {3, 8, 12}) set.insert(t);
  EXPECT_EQ(set.first_member(), 3);
  EXPECT_EQ(set.next_member_after(3), 8);
  EXPECT_EQ(set.next_member_after(0), 3);
  EXPECT_EQ(set.next_member_after(-1), 3);
  EXPECT_EQ(set.next_member_after(12), kInvalidTor);
  EXPECT_EQ(set.next_member_after(15), kInvalidTor);
  EXPECT_EQ(set.next_member_after(1'000), kInvalidTor);
  set.erase(8);
  EXPECT_EQ(set.next_member_after(3), 12);
  EXPECT_EQ(ActiveSet(8).first_member(), kInvalidTor);
  EXPECT_EQ(ActiveSet().first_member(), kInvalidTor);
  EXPECT_TRUE(members(ActiveSet()).empty());
}

TEST(ActiveSet, WordBoundaries) {
  // Ids either side of each 64-bit word edge, iterated and queried across
  // the empty words between them.
  ActiveSet set(200);
  const std::vector<TorId> edges{0, 63, 64, 127, 128, 199};
  for (TorId t : edges) set.insert(t);
  EXPECT_EQ(members(set), edges);
  EXPECT_EQ(set.next_member_after(0), 63);
  EXPECT_EQ(set.next_member_after(63), 64);
  EXPECT_EQ(set.next_member_after(64), 127);
  EXPECT_EQ(set.next_member_after(127), 128);
  EXPECT_EQ(set.next_member_after(128), 199);
  EXPECT_EQ(set.next_member_after(199), kInvalidTor);
  set.erase(64);
  set.erase(127);
  set.erase(128);
  EXPECT_EQ(set.next_member_after(63), 199) << "skips two empty words";
  EXPECT_EQ(members(set), (std::vector<TorId>{0, 63, 199}));
  EXPECT_FALSE(set.contains(200));
  EXPECT_FALSE(set.contains(-1));
}

TEST(ActiveSet, InsertPastCapacityGrows) {
  ActiveSet set(10);
  set.insert(3);
  set.insert(130);  // two words past the initial one
  EXPECT_TRUE(set.contains(130));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(members(set), (std::vector<TorId>{3, 130}));
  EXPECT_EQ(set.next_member_after(3), 130);
  EXPECT_EQ(set.next_member_after(130), kInvalidTor);
  set.erase(500);  // past capacity: a no-op
  EXPECT_EQ(set.size(), 2u);
  ActiveSet grown;  // zero capacity
  grown.insert(64);
  EXPECT_EQ(members(grown), (std::vector<TorId>{64}));
}

TEST(ActiveSet, ClearEmptiesAndKeepsCapacity) {
  ActiveSet set(200);
  set.clear();  // already empty: a no-op
  EXPECT_TRUE(set.empty());
  for (TorId t : {0, 63, 64, 199}) set.insert(t);
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(members(set).empty());
  for (TorId t : {0, 63, 64, 199}) EXPECT_FALSE(set.contains(t));
  set.insert(130);
  set.insert(5);
  EXPECT_EQ(members(set), (std::vector<TorId>{5, 130}));
  EXPECT_EQ(set.next_member_after(5), 130);
}

TEST(ActiveSetProperty, MatchesStdSetReference) {
  // A seeded insert/erase mix over ids that straddle the 63/64 and
  // 127/128 word edges, occasionally past capacity (growth) and below
  // zero (erase ignores it), checked after every step.
  Rng rng(20261017);
  for (int round = 0; round < 20; ++round) {
    const int capacity = 1 + static_cast<int>(rng.next_below(150));
    ActiveSet set(capacity);
    std::set<TorId> ref;
    for (int step = 0; step < 400; ++step) {
      TorId id = static_cast<TorId>(rng.next_below(140));
      if (rng.next_below(3) == 0) {
        // Cluster around the word edges.
        static constexpr TorId kEdges[] = {63, 64, 127, 128};
        id = kEdges[rng.next_below(4)] +
             static_cast<TorId>(rng.next_below(3)) - 1;
      }
      if (rng.next_below(2) == 0) {
        set.insert(id);
        ref.insert(id);
      } else {
        const TorId victim = rng.next_below(10) == 0 ? -1 - id : id;
        set.erase(victim);
        ref.erase(victim);
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(set, ref, 200))
          << "round " << round << " step " << step;
    }
    set.reset(capacity);
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(members(set).empty());
  }
}

}  // namespace
}  // namespace negotiator
