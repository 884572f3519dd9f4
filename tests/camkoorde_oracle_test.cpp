#include "camkoorde/oracle.h"

#include <gtest/gtest.h>

#include <cmath>

#include "multicast/metrics.h"
#include "test_util.h"
#include "util/rng.h"

namespace cam::camkoorde {
namespace {

using test::capacity_fn;
using test::make_population;

struct Param {
  std::size_t n;
  int bits;
  std::uint32_t cap_lo, cap_hi;
};

class CamKoordeLookupProperty : public ::testing::TestWithParam<Param> {};

TEST_P(CamKoordeLookupProperty, ResolvesToResponsibleNode) {
  auto [n, bits, cap_lo, cap_hi] = GetParam();
  NodeDirectory dir = make_population(n, bits, cap_lo, cap_hi);
  FrozenDirectory f = dir.freeze();
  Rng rng(31);
  for (int t = 0; t < 300; ++t) {
    Id from = f.ids()[rng.next_below(f.size())];
    Id k = rng.next_below(f.ring().size());
    auto r = lookup(f.ring(), f, capacity_fn(f), from, k);
    ASSERT_TRUE(r.ok) << "from=" << from << " k=" << k;
    EXPECT_EQ(r.owner, *f.responsible(k)) << "from=" << from << " k=" << k;
  }
}

TEST_P(CamKoordeLookupProperty, HopCountsAreModest) {
  auto [n, bits, cap_lo, cap_hi] = GetParam();
  NodeDirectory dir = make_population(n, bits, cap_lo, cap_hi);
  FrozenDirectory f = dir.freeze();
  Rng rng(37);
  double total = 0;
  int count = 0;
  for (int t = 0; t < 200; ++t) {
    Id from = f.ids()[rng.next_below(f.size())];
    Id k = rng.next_below(f.ring().size());
    auto r = lookup(f.ring(), f, capacity_fn(f), from, k);
    ASSERT_TRUE(r.ok);
    total += static_cast<double>(r.hops());
    ++count;
  }
  // Theorem 5 gives O(log n / E(log c)) for multicast paths; lookups on a
  // sparse ring pay extra correction hops, so only the *average* is
  // checked, with generous slack. Routing is dominated by the b-bit
  // transform, so b is the natural yardstick.
  EXPECT_LE(total / count, static_cast<double>(bits));
}

INSTANTIATE_TEST_SUITE_P(
    Populations, CamKoordeLookupProperty,
    ::testing::Values(Param{50, 12, 4, 4}, Param{100, 12, 4, 10},
                      Param{500, 16, 4, 10}, Param{500, 16, 4, 4},
                      Param{1000, 19, 4, 10}, Param{1000, 19, 20, 40},
                      Param{2000, 19, 4, 200}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string name = "n";
      name += std::to_string(p.n) + "b" + std::to_string(p.bits) + "c" +
              std::to_string(p.cap_lo) + "to" + std::to_string(p.cap_hi);
      return name;
    });

class CamKoordeMulticastProperty : public ::testing::TestWithParam<Param> {};

TEST_P(CamKoordeMulticastProperty, FloodReachesEveryone) {
  auto [n, bits, cap_lo, cap_hi] = GetParam();
  NodeDirectory dir = make_population(n, bits, cap_lo, cap_hi);
  FrozenDirectory f = dir.freeze();
  Rng rng(41);
  for (int t = 0; t < 5; ++t) {
    Id source = f.ids()[rng.next_below(f.size())];
    MulticastTree tree = multicast(f.ring(), f, capacity_fn(f), source);
    // Flooding over a digraph that contains all successor edges reaches
    // every member; the duplicate check keeps it exactly-once.
    EXPECT_EQ(tree.size(), f.size());
    EXPECT_EQ(tree.duplicate_deliveries(), 0u);
    EXPECT_EQ(capacity_violations(
                  tree, [&](Id x) { return f.info(x).capacity; }),
              0u);
  }
}

TEST_P(CamKoordeMulticastProperty, SuppressionOnlyWhereEdgesOverlap) {
  auto [n, bits, cap_lo, cap_hi] = GetParam();
  NodeDirectory dir = make_population(n, bits, cap_lo, cap_hi);
  FrozenDirectory f = dir.freeze();
  MulticastTree tree = multicast(f.ring(), f, capacity_fn(f), f.ids()[0]);
  // Total forwards attempted = edges of the flood digraph reachable from
  // the source; n-1 deliver, the rest are suppressed checks.
  std::uint64_t attempted = tree.suppressed_forwards() + (tree.size() - 1);
  std::uint64_t degree_sum = 0;
  for (Id x : f.ids()) {
    degree_sum += resolved_neighbors(f.ring(), f, f.info(x).capacity, x).size();
  }
  EXPECT_LE(attempted, degree_sum);
  EXPECT_GE(attempted, tree.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Populations, CamKoordeMulticastProperty,
    ::testing::Values(Param{2, 12, 4, 4}, Param{3, 12, 4, 8},
                      Param{50, 12, 4, 4}, Param{100, 12, 4, 10},
                      Param{500, 16, 4, 10}, Param{1000, 19, 4, 10},
                      Param{1000, 19, 20, 40}, Param{2000, 19, 4, 200}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string name = "n";
      name += std::to_string(p.n) + "b" + std::to_string(p.bits) + "c" +
              std::to_string(p.cap_lo) + "to" + std::to_string(p.cap_hi);
      return name;
    });

TEST(CamKoordeMulticast, DepthShrinksWithCapacity) {
  // Theorem 6: path length O(log n / log c) — larger capacities, shorter
  // trees. Compare average path lengths at c = 4 vs c = 32.
  NodeDirectory small_c = make_population(2000, 19, 4, 4, 7);
  NodeDirectory large_c = make_population(2000, 19, 32, 32, 7);
  FrozenDirectory fs = small_c.freeze(), fl = large_c.freeze();
  auto ms = compute_metrics(
      multicast(fs.ring(), fs, capacity_fn(fs), fs.ids()[0]));
  auto ml = compute_metrics(
      multicast(fl.ring(), fl, capacity_fn(fl), fl.ids()[0]));
  EXPECT_LT(ml.avg_path_length, ms.avg_path_length);
}

TEST(CamKoordeMulticast, LatencyModelShapesTheTree) {
  // With heterogeneous latencies the flood reaches nodes along the
  // fastest paths; arrival times must be non-decreasing in depth along
  // any branch and every node still gets the message.
  NodeDirectory dir = make_population(300, 16, 4, 10);
  FrozenDirectory f = dir.freeze();
  UniformLatency lat(5, 100, 77);
  MulticastTree tree = multicast(f.ring(), f, capacity_fn(f), f.ids()[0], lat);
  EXPECT_EQ(tree.size(), f.size());
  for (const auto& [node, rec] : tree.entries()) {
    if (node == tree.source()) continue;
    auto parent_rec = tree.record_of(rec.parent);
    ASSERT_TRUE(parent_rec.has_value());
    EXPECT_LT(parent_rec->time, rec.time);
    EXPECT_EQ(parent_rec->depth + 1, rec.depth);
  }
}

}  // namespace
}  // namespace cam::camkoorde
