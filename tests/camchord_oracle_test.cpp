#include "camchord/oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "multicast/metrics.h"
#include "test_util.h"
#include "util/rng.h"

namespace cam::camchord {
namespace {

using test::capacity_fn;
using test::make_population;

TEST(CamChordLookup, SingleNodeOwnsEverything) {
  NodeDirectory dir{RingSpace(8)};
  dir.add(77, {.capacity = 4, .bandwidth_kbps = 500});
  FrozenDirectory f = dir.freeze();
  for (Id k : {0u, 77u, 78u, 255u}) {
    auto r = lookup(f.ring(), f, capacity_fn(f), 77, k);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.owner, 77u);
    EXPECT_EQ(r.hops(), 0u);
  }
}

TEST(CamChordLookup, TwoNodesSplitTheRing) {
  NodeDirectory dir{RingSpace(5)};
  dir.add(5, {.capacity = 3, .bandwidth_kbps = 1});
  dir.add(20, {.capacity = 3, .bandwidth_kbps = 1});
  FrozenDirectory f = dir.freeze();
  for (Id k = 0; k < 32; ++k) {
    auto r = lookup(f.ring(), f, capacity_fn(f), 5, k);
    ASSERT_TRUE(r.ok) << k;
    EXPECT_EQ(r.owner, *dir.responsible(k)) << k;
  }
}

TEST(CamChordLookup, PaperWalkthroughIdentifier25) {
  // Section 3.2 example (Figure 2): from x, identifier x+25 routes via
  // x_{2,2} (node x+18) and resolves to node x+26 in one forward.
  NodeDirectory dir{RingSpace(5)};
  Id x = 0;
  for (Id off : {0u, 4u, 8u, 13u, 18u, 21u, 26u, 29u}) {
    dir.add(dir.ring().add(x, off), {.capacity = 3, .bandwidth_kbps = 1});
  }
  FrozenDirectory f = dir.freeze();
  auto r = lookup(f.ring(), f, capacity_fn(f), x, f.ring().add(x, 25));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.owner, f.ring().add(x, 26));
  ASSERT_EQ(r.path.size(), 2u);  // x -> x+18, answer returned there
  EXPECT_EQ(r.path[1], f.ring().add(x, 18));
}

struct LookupParam {
  std::size_t n;
  int bits;
  std::uint32_t cap_lo, cap_hi;
};

class CamChordLookupProperty : public ::testing::TestWithParam<LookupParam> {};

TEST_P(CamChordLookupProperty, ResolvesToResponsibleNode) {
  auto [n, bits, cap_lo, cap_hi] = GetParam();
  NodeDirectory dir = make_population(n, bits, cap_lo, cap_hi);
  FrozenDirectory f = dir.freeze();
  Rng rng(17);
  const double log_n = std::log(static_cast<double>(n));
  const double log_c = std::log(static_cast<double>(cap_lo));
  for (int t = 0; t < 300; ++t) {
    Id from = f.ids()[rng.next_below(f.size())];
    Id k = rng.next_below(f.ring().size());
    auto r = lookup(f.ring(), f, capacity_fn(f), from, k);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.owner, *f.responsible(k));
    // Theorem 2: expected O(log n / log c); 8x margin on the bound plus a
    // constant covers the tail of individual lookups.
    EXPECT_LE(r.hops(), 8 * log_n / log_c + 8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Populations, CamChordLookupProperty,
    ::testing::Values(LookupParam{50, 12, 2, 2}, LookupParam{100, 12, 4, 10},
                      LookupParam{500, 16, 4, 10}, LookupParam{500, 16, 2, 3},
                      LookupParam{1000, 19, 4, 10},
                      LookupParam{1000, 19, 20, 40},
                      LookupParam{2000, 19, 4, 200}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string name = "n";
      name += std::to_string(p.n) + "b" + std::to_string(p.bits) + "c" +
              std::to_string(p.cap_lo) + "to" + std::to_string(p.cap_hi);
      return name;
    });

class CamChordMulticastProperty : public ::testing::TestWithParam<LookupParam> {
};

TEST_P(CamChordMulticastProperty, ReachesEveryNodeExactlyOnce) {
  auto [n, bits, cap_lo, cap_hi] = GetParam();
  NodeDirectory dir = make_population(n, bits, cap_lo, cap_hi);
  FrozenDirectory f = dir.freeze();
  Rng rng(23);
  for (int t = 0; t < 5; ++t) {
    Id source = f.ids()[rng.next_below(f.size())];
    MulticastTree tree = multicast(f.ring(), f, capacity_fn(f), source);
    // Exactly-once delivery to the whole group (Section 3.4: "every
    // member node will receive one and only one copy").
    EXPECT_EQ(tree.size(), f.size());
    EXPECT_EQ(tree.duplicate_deliveries(), 0u);
    for (Id id : f.ids()) EXPECT_TRUE(tree.delivered(id));
    // Capacity constraint: children(x) <= c_x for every node.
    EXPECT_EQ(capacity_violations(
                  tree, [&](Id x) { return f.info(x).capacity; }),
              0u);
  }
}

TEST_P(CamChordMulticastProperty, TreeDepthWithinTheoremBound) {
  auto [n, bits, cap_lo, cap_hi] = GetParam();
  NodeDirectory dir = make_population(n, bits, cap_lo, cap_hi);
  FrozenDirectory f = dir.freeze();
  Id source = f.ids().front();
  MulticastTree tree = multicast(f.ring(), f, capacity_fn(f), source);
  TreeMetrics m = compute_metrics(tree);
  double c_avg = (cap_lo + cap_hi) / 2.0;
  // Theorem 4 expectation with the paper's own empirical constant 1.5
  // (Figure 11 shows 1.5 ln n / ln c upper-bounds the average).
  EXPECT_LE(m.avg_path_length,
            1.5 * std::log(static_cast<double>(n)) / std::log(c_avg) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Populations, CamChordMulticastProperty,
    ::testing::Values(LookupParam{2, 12, 2, 2}, LookupParam{3, 12, 2, 4},
                      LookupParam{50, 12, 2, 2}, LookupParam{100, 12, 4, 10},
                      LookupParam{500, 16, 4, 10}, LookupParam{500, 16, 2, 3},
                      LookupParam{1000, 19, 4, 10},
                      LookupParam{1000, 19, 20, 40},
                      LookupParam{2000, 19, 4, 200}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string name = "n";
      name += std::to_string(p.n) + "b" + std::to_string(p.bits) + "c" +
              std::to_string(p.cap_lo) + "to" + std::to_string(p.cap_hi);
      return name;
    });

TEST(CamChordMulticast, SingleNodeTreeIsJustTheSource) {
  NodeDirectory dir{RingSpace(8)};
  dir.add(9, {.capacity = 5, .bandwidth_kbps = 1});
  FrozenDirectory f = dir.freeze();
  MulticastTree tree = multicast(f.ring(), f, capacity_fn(f), 9);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.delivered(9));
}

TEST(CamChordMulticast, PaperExampleTreeShape) {
  // Figure 3: the implicit tree rooted at x for the Figure 2 topology.
  // x forwards to x+29, x+18, x+4; (x+18) forwards to x+21 and x+26;
  // (x+4) forwards to x+8 and x+13.
  RingSpace ring(5);
  NodeDirectory dir(ring);
  Id x = 0;
  for (Id off : {0u, 4u, 8u, 13u, 18u, 21u, 26u, 29u}) {
    dir.add(ring.add(x, off), {.capacity = 3, .bandwidth_kbps = 1});
  }
  FrozenDirectory f = dir.freeze();
  MulticastTree tree = multicast(ring, f, capacity_fn(f), x);
  ASSERT_EQ(tree.size(), 8u);
  auto parent = [&](Id off) { return tree.record_of(ring.add(x, off))->parent; };
  EXPECT_EQ(parent(29), x);
  EXPECT_EQ(parent(18), x);
  EXPECT_EQ(parent(4), x);
  EXPECT_EQ(parent(21), ring.add(x, 18));
  EXPECT_EQ(parent(26), ring.add(x, 18));
  EXPECT_EQ(parent(8), ring.add(x, 4));
  EXPECT_EQ(parent(13), ring.add(x, 4));
  // Height 2 (Figure 3).
  EXPECT_EQ(compute_metrics(tree).max_depth, 2);
}

TEST(CamChordMulticast, RegionRestrictedDelivery) {
  NodeDirectory dir = make_population(200, 12, 4, 10);
  FrozenDirectory f = dir.freeze();
  Id source = f.ids()[10];
  Id bound = f.ids()[60];  // region (source, bound]
  MulticastTree tree =
      multicast_region(f.ring(), f, capacity_fn(f), source, bound);
  for (Id id : f.ids()) {
    bool inside = f.ring().in_oc(id, source, bound) || id == source;
    EXPECT_EQ(tree.delivered(id), inside) << id;
  }
}

TEST(CamChordMulticast, InternalNodesUseFullCapacityNearTheRoot) {
  // Section 3.4: "the number of children for an internal node is always
  // equal to the node's capacity as long as the node is not at the
  // bottom levels of the tree". On a sparse ring a sub-region can run out
  // of *nodes* while still wide in identifiers, so the guarantee holds
  // where regions are well populated — the top of the tree. Check the
  // root exactly and the overwhelming majority of depth-1 nodes.
  NodeDirectory dir = make_population(1000, 19, 5, 5);
  FrozenDirectory f = dir.freeze();
  Id source = f.ids()[0];
  MulticastTree tree = multicast(f.ring(), f, capacity_fn(f), source);
  auto counts = tree.children_counts();
  EXPECT_EQ(counts.at(source), f.info(source).capacity);
  std::size_t full = 0, checked = 0;
  for (const auto& [node, c] : counts) {
    if (tree.record_of(node)->depth == 1) {
      ++checked;
      if (c == f.info(node).capacity) ++full;
    }
  }
  ASSERT_GT(checked, 0u);
  EXPECT_GE(static_cast<double>(full) / static_cast<double>(checked), 0.9);
}

}  // namespace
}  // namespace cam::camchord
