#include "koorde/koorde.h"

#include <gtest/gtest.h>

#include <set>

#include "multicast/metrics.h"
#include "test_util.h"
#include "util/rng.h"

namespace cam::koorde {
namespace {

using test::make_population;

TEST(KoordeMath, SpCommonBitsMirrorsPsCommon) {
  RingSpace r(6);
  // Suffix of x matches prefix of k.
  EXPECT_EQ(sp_common_bits(r, 36, 36), 6);
  // x = 100100 suffix "100" (4); k = 100xxx with prefix 100 -> l >= 3.
  EXPECT_GE(sp_common_bits(r, 36, 0b100000), 3);
  EXPECT_EQ(sp_common_bits(r, 36, 0b100101), ps_common_bits(r, 0b100101, 36));
}

TEST(KoordeMath, ShiftIdentifiersClusterInLowBits) {
  // The paper's critique: Koorde's neighbor identifiers "differ only at
  // the last digit. Consequently they are clustered". The second group's
  // t identifiers are consecutive integers.
  RingSpace r(12);
  std::uint32_t deg = 20;  // s = 4, t = 16
  Id x = 1234;
  auto ids = shift_identifiers(r, deg, x);
  ASSERT_GE(ids.size(), 18u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(ids[static_cast<std::size_t>(2 + i + 1)],
              r.add(ids[static_cast<std::size_t>(2 + i)], 1));
  }
}

TEST(KoordeMath, IdentifierCountIsDegreeMinusTwo) {
  RingSpace r(19);
  for (std::uint32_t deg = 4; deg <= 64; ++deg) {
    EXPECT_EQ(shift_identifiers(r, deg, 98765 % r.size()).size(), deg - 2);
  }
}

TEST(KoordeMath, BaseDeBruijnPointers) {
  RingSpace r(6);
  auto ids = shift_identifiers(r, 4, 36);
  EXPECT_EQ(ids, (std::vector<Id>{r.wrap(72), r.wrap(73)}));
}

TEST(KoordeMath, NeighborClusteringCollapsesOnSparseRings) {
  // On a sparse ring the clustered identifiers resolve to few distinct
  // nodes — the effect CAM-Koorde's right shift avoids.
  NodeDirectory dir = make_population(200, 16, 4, 10);
  FrozenDirectory f = dir.freeze();
  std::uint32_t deg = 20;
  double koorde_distinct = 0;
  for (Id x : f.ids()) {
    koorde_distinct +=
        static_cast<double>(resolved_neighbors(f.ring(), f, deg, x).size());
  }
  koorde_distinct /= static_cast<double>(f.size());
  // 16 clustered de Bruijn identifiers mostly collapse: far fewer than
  // deg distinct neighbors on average.
  EXPECT_LT(koorde_distinct, 0.7 * deg);
}

struct Param {
  std::size_t n;
  int bits;
  std::uint32_t deg;
};

class KoordeProperty : public ::testing::TestWithParam<Param> {};

TEST_P(KoordeProperty, LookupResolvesToResponsibleNode) {
  auto [n, bits, deg] = GetParam();
  NodeDirectory dir = make_population(n, bits, 4, 10);
  FrozenDirectory f = dir.freeze();
  Rng rng(13);
  for (int t = 0; t < 200; ++t) {
    Id from = f.ids()[rng.next_below(f.size())];
    Id k = rng.next_below(f.ring().size());
    auto r = lookup(f.ring(), f, deg, from, k);
    ASSERT_TRUE(r.ok) << "from=" << from << " k=" << k;
    EXPECT_EQ(r.owner, *f.responsible(k));
  }
}

TEST_P(KoordeProperty, FloodReachesEveryone) {
  auto [n, bits, deg] = GetParam();
  NodeDirectory dir = make_population(n, bits, 4, 10);
  FrozenDirectory f = dir.freeze();
  MulticastTree tree = multicast(f.ring(), f, deg, f.ids()[0]);
  EXPECT_EQ(tree.size(), f.size());
  EXPECT_EQ(tree.duplicate_deliveries(), 0u);
  // Children bounded by the uniform degree.
  EXPECT_EQ(capacity_violations(tree, [deg](Id) { return deg; }), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DegreesAndSizes, KoordeProperty,
    ::testing::Values(Param{100, 12, 4}, Param{500, 16, 4}, Param{500, 16, 8},
                      Param{500, 16, 20}, Param{1000, 19, 6},
                      Param{1000, 19, 32}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string name = "n";
      name += std::to_string(p.n) + "b" + std::to_string(p.bits) + "deg" +
              std::to_string(p.deg);
      return name;
    });

}  // namespace
}  // namespace cam::koorde
