#include "camchord/neighbor_math.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/intmath.h"
#include "util/rng.h"

namespace cam::camchord {
namespace {

TEST(CamChordMath, NumLevelsIsCeilLogBase) {
  RingSpace r32(5);  // N = 32
  EXPECT_EQ(num_levels(r32, 2), 5);   // 2^5 = 32
  EXPECT_EQ(num_levels(r32, 3), 4);   // 3^4 = 81 >= 32 > 3^3
  EXPECT_EQ(num_levels(r32, 6), 2);   // 6^2 = 36 >= 32
  EXPECT_EQ(num_levels(r32, 32), 1);
  EXPECT_EQ(num_levels(r32, 33), 1);
  RingSpace r19(19);
  EXPECT_EQ(num_levels(r19, 2), 19);
  EXPECT_EQ(num_levels(r19, 4), 10);  // 4^10 = 2^20 >= 2^19
}

TEST(CamChordMath, LevelSeqEquations) {
  // Eq. 1-2 on the paper's Figure 2 configuration: N = 32, c = 3.
  RingSpace r(5);
  Id x = 0;
  // d = 25: i = floor(log3 25) = 2, j = floor(25 / 9) = 2.
  auto ls = level_seq(r, 3, x, 25);
  EXPECT_EQ(ls.level, 2);
  EXPECT_EQ(ls.seq, 2u);
  // d = 31: i = 3, j = 1 (27 <= 31 < 54).
  ls = level_seq(r, 3, x, 31);
  EXPECT_EQ(ls.level, 3);
  EXPECT_EQ(ls.seq, 1u);
  // d = 1: i = 0, j = 1.
  ls = level_seq(r, 3, x, 1);
  EXPECT_EQ(ls.level, 0);
  EXPECT_EQ(ls.seq, 1u);
}

TEST(CamChordMath, LevelSeqWithOffsetOrigin) {
  // The same distances must hold from any origin (wrapping).
  RingSpace r(5);
  auto ls = level_seq(r, 3, 30, r.add(30, 25));
  EXPECT_EQ(ls.level, 2);
  EXPECT_EQ(ls.seq, 2u);
}

TEST(CamChordMath, NeighborIdentifierFormula) {
  RingSpace r(5);
  EXPECT_EQ(neighbor_identifier(r, 3, 0, 0, 1), 1u);
  EXPECT_EQ(neighbor_identifier(r, 3, 0, 0, 2), 2u);
  EXPECT_EQ(neighbor_identifier(r, 3, 0, 1, 1), 3u);
  EXPECT_EQ(neighbor_identifier(r, 3, 0, 1, 2), 6u);
  EXPECT_EQ(neighbor_identifier(r, 3, 0, 2, 1), 9u);
  EXPECT_EQ(neighbor_identifier(r, 3, 0, 2, 2), 18u);
  EXPECT_EQ(neighbor_identifier(r, 3, 0, 3, 1), 27u);
  EXPECT_EQ(neighbor_identifier(r, 3, 30, 1, 2), 4u);  // wraps
}

TEST(CamChordMath, NeighborIdentifiersMatchFigure2) {
  // Figure 2: N = 32, c_x = 3. Neighbor identifiers of x are x+1, x+2
  // (level 0), x+3, x+6 (level 1), x+9, x+18 (level 2), x+27 (level 3 —
  // x + 2*27 = x + 54 laps the ring and is excluded).
  RingSpace r(5);
  auto ids = neighbor_identifiers(r, 3, 0);
  EXPECT_EQ(ids, (std::vector<Id>{1, 2, 3, 6, 9, 18, 27}));
  // Offset origin: same offsets.
  auto ids7 = neighbor_identifiers(r, 3, 7);
  ASSERT_EQ(ids7.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids7[i], r.add(7, ids[i]));
  }
}

TEST(CamChordMath, NeighborCountScalesAsTheorySays) {
  // O(c * log N / log c) identifiers; exact count is (c-1) per level with
  // top-level truncation.
  RingSpace r(19);
  for (std::uint32_t c : {2u, 3u, 4u, 8u, 16u, 64u}) {
    auto ids = neighbor_identifiers(r, c, 12345);
    std::set<Id> uniq(ids.begin(), ids.end());
    EXPECT_EQ(uniq.size(), ids.size()) << "duplicate identifiers, c=" << c;
    EXPECT_LE(ids.size(),
              static_cast<std::size_t>(c - 1) *
                  static_cast<std::size_t>(num_levels(r, c)));
    EXPECT_GE(ids.size(), static_cast<std::size_t>(c - 1));
  }
}

TEST(CamChordMath, LevelSeqIdentifierIsCounterClockwiseClosest) {
  // Section 3.1: x_{i,j} is the neighbor identifier counter-clockwise
  // closest to k. Property-checked over random (x, k, c).
  RingSpace r(12);
  Rng rng(5);
  for (int t = 0; t < 20000; ++t) {
    std::uint32_t c = static_cast<std::uint32_t>(rng.uniform(2, 17));
    Id x = rng.next_below(r.size());
    Id k = rng.next_below(r.size());
    if (k == x) continue;
    auto [i, j] = level_seq(r, c, x, k);
    Id ident = neighbor_identifier(r, c, x, i, j);
    // The identifier is in (x, k]:
    EXPECT_TRUE(r.in_oc(ident, x, k)) << "x=" << x << " k=" << k << " c=" << c;
    // ... and no other neighbor identifier lies in (ident, k].
    for (Id other : neighbor_identifiers(r, c, x)) {
      EXPECT_FALSE(r.in_oo(other, ident, k))
          << "x=" << x << " k=" << k << " c=" << c << " other=" << other;
    }
  }
}

TEST(CamChordMath, SelectChildrenPaperExample) {
  // Section 3.4 walkthrough: c_x = 3, source multicast with k = x - 1.
  // x forwards to x_{3,1} (bound x+31), then the level-2 pick x_{2,2}
  // (bound x+26), then the successor x_{0,1} (bound x+17).
  RingSpace r(5);
  Id x = 0;
  auto kids = select_children(r, 3, x, r.sub(x, 1));
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(kids[0].identifier, 27u);
  EXPECT_EQ(kids[0].bound, 31u);
  EXPECT_EQ(kids[1].identifier, 18u);
  EXPECT_EQ(kids[1].bound, 26u);
  EXPECT_EQ(kids[2].identifier, 1u);
  EXPECT_EQ(kids[2].bound, 17u);
}

TEST(CamChordMath, SelectChildrenLevelZeroAssignsOnePerIdentifier) {
  RingSpace r(5);
  // d = 2 < c = 4: children are x+2 (bound k) and x+1 (bound x+1); no
  // duplicate successor pick.
  auto kids = select_children(r, 4, 10, 12);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0].identifier, 12u);
  EXPECT_EQ(kids[0].bound, 12u);
  EXPECT_EQ(kids[1].identifier, 11u);
  EXPECT_EQ(kids[1].bound, 11u);
}

TEST(CamChordMath, SelectChildrenCountsAreExactlyCapacity) {
  // For i >= 1 the split produces exactly c children (lines 6-15).
  RingSpace r(12);
  Rng rng(6);
  for (int t = 0; t < 20000; ++t) {
    std::uint32_t c = static_cast<std::uint32_t>(rng.uniform(2, 40));
    Id x = rng.next_below(r.size());
    Id k = rng.next_below(r.size());
    if (k == x) continue;
    std::uint64_t d = r.clockwise(x, k);
    auto kids = select_children(r, c, x, k);
    if (d < c) {
      EXPECT_EQ(kids.size(), d);  // level 0: one child per identifier
    } else {
      EXPECT_EQ(kids.size(), c);
    }
  }
}

TEST(CamChordMath, SelectChildrenIdentifiersDistinctAndDescending) {
  RingSpace r(12);
  Rng rng(7);
  for (int t = 0; t < 20000; ++t) {
    std::uint32_t c = static_cast<std::uint32_t>(rng.uniform(2, 40));
    Id x = rng.next_below(r.size());
    Id k = rng.next_below(r.size());
    if (k == x) continue;
    auto kids = select_children(r, c, x, k);
    for (std::size_t a = 1; a < kids.size(); ++a) {
      // Strictly descending clockwise offsets from x.
      EXPECT_LT(r.clockwise(x, kids[a].identifier),
                r.clockwise(x, kids[a - 1].identifier))
          << "x=" << x << " k=" << k << " c=" << c;
    }
  }
}

TEST(CamChordMath, SelectChildrenRegionsPartition) {
  // The assigned sub-regions [identifier, bound] tile (x, k] exactly:
  // child regions are disjoint and their union covers every identifier.
  RingSpace r(9);
  Rng rng(8);
  for (int t = 0; t < 4000; ++t) {
    std::uint32_t c = static_cast<std::uint32_t>(rng.uniform(2, 20));
    Id x = rng.next_below(r.size());
    Id k = rng.next_below(r.size());
    if (k == x) continue;
    auto kids = select_children(r, c, x, k);
    // Walk regions from the top: region_a = [ident_a, bound_a], with
    // bound_{a+1} = ident_a - 1.
    Id expected_bound = k;
    for (const auto& a : kids) {
      EXPECT_EQ(a.bound, expected_bound);
      EXPECT_TRUE(r.in_oc(a.identifier, x, a.bound) ||
                  a.identifier == r.add(x, 1));
      expected_bound = r.sub(a.identifier, 1);
    }
    // After the last (lowest) child, everything down to x+1 is assigned.
    EXPECT_EQ(expected_bound, x);
  }
}

TEST(CamChordMath, ChildSlotsIndexTheNeighborLadder) {
  // A node's table is parallel to neighbor_identifiers(r, c, x), and the
  // multicast and LOOKUP hops read it at neighbor_slot(c, i, j) with no
  // search. Check that slot against the ladder on rings of 5-24 bits,
  // including ladders whose top level is cut short, at region sizes
  // spread over every level.
  Rng rng(9);
  int cut_short = 0;
  for (int t = 0; t < 20000; ++t) {
    const auto bits = static_cast<int>(rng.uniform(5, 24));
    RingSpace r(bits);
    const auto c = static_cast<std::uint32_t>(rng.uniform(2, 40));
    const Id x = rng.next_below(r.size());
    const std::uint64_t span =
        std::min(r.size() - 1, std::uint64_t{1} << rng.uniform(0, bits));
    const Id k = r.add(x, 1 + rng.next_below(span));
    const std::vector<Id> ladder = neighbor_identifiers(r, c, x);
    const std::size_t full = static_cast<std::size_t>(c - 1) *
                             static_cast<std::size_t>(num_levels(r, c));
    cut_short += ladder.size() < full;

    for (const ChildAssignment& a : select_children(r, c, x, k)) {
      ASSERT_LT(a.slot, ladder.size())
          << "bits=" << bits << " c=" << c << " x=" << x << " k=" << k;
      EXPECT_EQ(ladder[a.slot], a.identifier)
          << "bits=" << bits << " c=" << c << " x=" << x << " k=" << k;
    }
    const auto [i, j] = level_seq(r, c, x, k);
    const std::size_t slot = neighbor_slot(c, i, j);
    ASSERT_LT(slot, ladder.size())
        << "bits=" << bits << " c=" << c << " x=" << x << " k=" << k;
    EXPECT_EQ(ladder[slot], neighbor_identifier(r, c, x, i, j))
        << "bits=" << bits << " c=" << c << " x=" << x << " k=" << k;
  }
  EXPECT_GT(cut_short, 1000);  // the prefix case is exercised, not rare
}

}  // namespace
}  // namespace cam::camchord
