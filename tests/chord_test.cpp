#include "chord/el_ansary.h"

#include <gtest/gtest.h>

#include <cmath>

#include "camchord/oracle.h"
#include "multicast/metrics.h"
#include "test_util.h"
#include "util/rng.h"

namespace cam::chord {
namespace {

using test::make_population;

struct Param {
  std::size_t n;
  int bits;
  std::uint32_t base;
};

class ElAnsaryBroadcast : public ::testing::TestWithParam<Param> {};

TEST_P(ElAnsaryBroadcast, ReachesEveryNodeExactlyOnce) {
  auto [n, bits, base] = GetParam();
  NodeDirectory dir = make_population(n, bits, 4, 10);
  FrozenDirectory f = dir.freeze();
  Rng rng(3);
  for (int t = 0; t < 5; ++t) {
    Id source = f.ids()[rng.next_below(f.size())];
    MulticastTree tree = broadcast(f.ring(), f, base, source);
    EXPECT_EQ(tree.size(), f.size());
    EXPECT_EQ(tree.duplicate_deliveries(), 0u);
  }
}

TEST_P(ElAnsaryBroadcast, DepthIsLogarithmic) {
  auto [n, bits, base] = GetParam();
  NodeDirectory dir = make_population(n, bits, 4, 10);
  FrozenDirectory f = dir.freeze();
  MulticastTree tree = broadcast(f.ring(), f, base, f.ids()[0]);
  TreeMetrics m = compute_metrics(tree);
  // Each level shrinks the identifier segment by a factor >= base, so the
  // depth is bounded by the identifier-space logarithm (not by log of the
  // node count — on a sparse ring a segment can stay node-poor but wide).
  double space = static_cast<double>(f.ring().size());
  EXPECT_LE(m.max_depth,
            static_cast<int>(std::ceil(std::log(space) /
                                       std::log(static_cast<double>(base)))) +
                1);
}

INSTANTIATE_TEST_SUITE_P(
    BasesAndSizes, ElAnsaryBroadcast,
    ::testing::Values(Param{100, 12, 2}, Param{500, 16, 2}, Param{500, 16, 3},
                      Param{500, 16, 8}, Param{1000, 19, 2},
                      Param{1000, 19, 16}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string name = "n";
      name += std::to_string(p.n) + "b" + std::to_string(p.bits) +
              "base" + std::to_string(p.base);
      return name;
    });

TEST(ElAnsary, ChildrenCountsVaryUnlikeCam) {
  // Section 3.4: in the Chord broadcast "the number of children per node
  // ranges from 1 to (M - h)" — the root sends to every finger, far more
  // than a CAM node's capacity would allow.
  NodeDirectory dir = make_population(2000, 19, 4, 10);
  FrozenDirectory f = dir.freeze();
  Id source = f.ids()[0];
  MulticastTree tree = broadcast(f.ring(), f, 2, source);
  auto counts = tree.children_counts();
  // Root children ~ log2 n.
  EXPECT_GE(counts.at(source), 8u);
  TreeMetrics m = compute_metrics(tree);
  EXPECT_GT(m.max_children, 8u);
}

TEST(ElAnsary, RegionRestrictedBroadcast) {
  NodeDirectory dir = make_population(300, 16, 4, 10);
  FrozenDirectory f = dir.freeze();
  Id source = f.ids()[10];
  Id bound = f.ids()[200];
  MulticastTree tree = broadcast_region(f.ring(), f, 2, source, bound);
  for (Id id : f.ids()) {
    bool inside = f.ring().in_oc(id, source, bound) || id == source;
    EXPECT_EQ(tree.delivered(id), inside) << id;
  }
}

TEST(ElAnsary, SingletonBroadcast) {
  NodeDirectory dir{RingSpace(8)};
  dir.add(7, {.capacity = 4, .bandwidth_kbps = 1});
  FrozenDirectory f = dir.freeze();
  MulticastTree tree = broadcast(f.ring(), f, 2, 7);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(ChordLookup, UniformCapacityLookupIsChordLookup) {
  // Generalized Chord lookup == CAM-Chord lookup at constant capacity.
  NodeDirectory dir = make_population(500, 16, 4, 10);
  FrozenDirectory f = dir.freeze();
  Rng rng(5);
  for (int t = 0; t < 200; ++t) {
    Id from = f.ids()[rng.next_below(f.size())];
    Id k = rng.next_below(f.ring().size());
    auto r = camchord::lookup(
        f.ring(), f, [](Id) { return std::uint32_t{2}; }, from, k);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.owner, *f.responsible(k));
    EXPECT_LE(r.hops(), 2u * 16u);  // O(log2 N) with margin
  }
}

}  // namespace
}  // namespace cam::chord
