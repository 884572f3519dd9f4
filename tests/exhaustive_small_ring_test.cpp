// Exhaustive verification on small rings: every (start node, target
// identifier) lookup pair and every multicast source, for both CAM
// systems and several populations. Small enough to brute-force, strong
// enough to catch any wrap-around or boundary slip the sampled property
// tests might miss.
#include <gtest/gtest.h>

#include "camchord/oracle.h"
#include "camkoorde/oracle.h"
#include "multicast/metrics.h"
#include "test_util.h"

namespace cam {
namespace {

struct Param {
  std::size_t n;
  int bits;
  std::uint32_t cap_lo, cap_hi;
  std::uint64_t seed;
};

class ExhaustiveSmallRing : public ::testing::TestWithParam<Param> {};

TEST_P(ExhaustiveSmallRing, EveryLookupFromEveryNodeIsCorrect) {
  auto [n, bits, cap_lo, cap_hi, seed] = GetParam();
  NodeDirectory dir = test::make_population(n, bits, cap_lo, cap_hi, seed);
  FrozenDirectory f = dir.freeze();
  auto cap = test::capacity_fn(f);
  for (Id from : f.ids()) {
    for (Id k = 0; k < f.ring().size(); ++k) {
      Id want = *f.responsible(k);
      auto rc = camchord::lookup(f.ring(), f, cap, from, k);
      ASSERT_TRUE(rc.ok) << "camchord from=" << from << " k=" << k;
      ASSERT_EQ(rc.owner, want) << "camchord from=" << from << " k=" << k;
      if (cap_lo >= 4) {
        auto rk = camkoorde::lookup(f.ring(), f, cap, from, k);
        ASSERT_TRUE(rk.ok) << "camkoorde from=" << from << " k=" << k;
        ASSERT_EQ(rk.owner, want) << "camkoorde from=" << from << " k=" << k;
      }
    }
  }
}

TEST_P(ExhaustiveSmallRing, EverySourceMulticastsToEveryoneExactlyOnce) {
  auto [n, bits, cap_lo, cap_hi, seed] = GetParam();
  NodeDirectory dir = test::make_population(n, bits, cap_lo, cap_hi, seed);
  FrozenDirectory f = dir.freeze();
  auto cap = test::capacity_fn(f);
  for (Id source : f.ids()) {
    MulticastTree tc = camchord::multicast(f.ring(), f, cap, source);
    ASSERT_EQ(tc.size(), f.size()) << "camchord source=" << source;
    ASSERT_EQ(tc.duplicate_deliveries(), 0u);
    ASSERT_EQ(capacity_violations(tc, cap), 0u);
    if (cap_lo >= 4) {
      MulticastTree tk = camkoorde::multicast(f.ring(), f, cap, source);
      ASSERT_EQ(tk.size(), f.size()) << "camkoorde source=" << source;
      ASSERT_EQ(capacity_violations(tk, cap), 0u);
    }
  }
}

TEST_P(ExhaustiveSmallRing, EveryRegionMulticastHitsExactlyTheRegion) {
  auto [n, bits, cap_lo, cap_hi, seed] = GetParam();
  NodeDirectory dir = test::make_population(n, bits, cap_lo, cap_hi, seed);
  FrozenDirectory f = dir.freeze();
  auto cap = test::capacity_fn(f);
  // All source x bound pairs over the member set.
  for (Id source : f.ids()) {
    for (Id bound : f.ids()) {
      MulticastTree t =
          camchord::multicast_region(f.ring(), f, cap, source, bound);
      for (Id id : f.ids()) {
        bool inside = id == source || f.ring().in_oc(id, source, bound);
        ASSERT_EQ(t.delivered(id), inside)
            << "source=" << source << " bound=" << bound << " id=" << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rings, ExhaustiveSmallRing,
    ::testing::Values(Param{8, 6, 4, 10, 1}, Param{12, 6, 4, 4, 2},
                      Param{16, 7, 4, 20, 3}, Param{10, 6, 2, 3, 4},
                      Param{24, 8, 5, 12, 5}, Param{3, 6, 4, 8, 6},
                      Param{2, 6, 4, 4, 7}),
    [](const auto& info) {
      const Param& p = info.param;
      std::string name = "n";
      name += std::to_string(p.n) + "b" + std::to_string(p.bits) + "c" +
              std::to_string(p.cap_lo) + "to" + std::to_string(p.cap_hi);
      return name;
    });

}  // namespace
}  // namespace cam
