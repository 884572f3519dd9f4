// Workload generator unit tests: the zipf size sampler actually follows
// its law (chi-squared goodness of fit), flash-crowd waves land at
// metronome-exact times, the WorkloadPlan DSL round-trips through its
// canonical text, malformed plans fail with line-precise errors, and
// event expansion is a pure function of (plan, directory, seed).
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/population.h"
#include "workload/session_workload.h"

namespace cam {
namespace {

using workload::SessionEvent;
using workload::SessionOp;
using workload::WorkloadPlan;

FrozenDirectory small_world(std::size_t n, std::uint64_t seed) {
  workload::PopulationSpec spec;
  spec.n = n;
  spec.ring_bits = 12;
  spec.seed = seed;
  return workload::uniform_capacity_population(spec, 4, 10).freeze();
}

TEST(ZipfSizes, ChiSquaredFitsTheLaw) {
  // 200k draws over sizes 2..17: 16 buckets, 15 degrees of freedom.
  // The statistic for a correct sampler hovers around df; 2*(df + 2)
  // is far outside anything a faithful sampler produces while a
  // misweighted CDF (off-by-one bucket, wrong exponent) lands in the
  // thousands.
  constexpr std::uint32_t kMin = 2, kMax = 17, kDraws = 200'000;
  constexpr double kAlpha = 1.2;
  Rng rng(99);
  const std::vector<std::uint32_t> sizes =
      workload::zipf_group_sizes(kDraws, kAlpha, kMin, kMax, rng);
  ASSERT_EQ(sizes.size(), kDraws);

  std::vector<std::uint32_t> observed(kMax - kMin + 1, 0);
  for (std::uint32_t s : sizes) {
    ASSERT_GE(s, kMin);
    ASSERT_LE(s, kMax);
    ++observed[s - kMin];
  }
  double total_weight = 0;
  std::vector<double> weight(observed.size());
  for (std::size_t i = 0; i < weight.size(); ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), kAlpha);
    total_weight += weight[i];
  }
  double chi2 = 0;
  for (std::size_t i = 0; i < weight.size(); ++i) {
    const double expected = kDraws * weight[i] / total_weight;
    const double d = observed[i] - expected;
    chi2 += d * d / expected;
  }
  const double df = static_cast<double>(observed.size() - 1);
  EXPECT_LT(chi2, 2.0 * (df + 2.0)) << "zipf sampler off its law";
  // The tail really is heavy: the smallest size dominates the largest.
  EXPECT_GT(observed.front(), 8u * observed.back());
}

TEST(FlashWave, JoinsLandAtExactMetronomeTimes) {
  const FrozenDirectory dir = small_world(64, 5);
  WorkloadPlan plan;
  plan.flash(1, 100.0, 12, 2.5);
  const std::vector<SessionEvent> events =
      workload::generate_events(plan, dir, 7);

  std::vector<SimTime> join_times;
  for (const SessionEvent& e : events) {
    if (e.op == SessionOp::kJoin && e.group == 1) {
      join_times.push_back(e.at_ms);
    }
  }
  ASSERT_EQ(join_times.size(), 12u);
  for (std::size_t i = 0; i < join_times.size(); ++i) {
    // EXPECT_EQ, not NEAR: at + i * spacing with no accumulated drift.
    EXPECT_EQ(join_times[i], 100.0 + static_cast<double>(i) * 2.5);
  }
  // The wave's target group exists before the first join.
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().op, SessionOp::kCreate);
  EXPECT_LE(events.front().at_ms, join_times.front());
}

TEST(WorkloadPlan, CanonicalTextRoundTrips) {
  WorkloadPlan plan;
  plan.groups(40, 1.25, 2, 32)
      .flash(3, 50.0, 24, 0.5)
      .diurnal(100.0, 900.0, 250.0, 0.75, 0.02, 0.015)
      .region_fail(950.0, 1234, 0.1, 6);

  const std::string text = plan.to_string();
  std::string error;
  const std::optional<WorkloadPlan> parsed =
      WorkloadPlan::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, plan);
  // Canonical means fixed-point: rendering the parse changes nothing.
  EXPECT_EQ(parsed->to_string(), text);

  // Comments and blank lines are accepted and vanish.
  const std::optional<WorkloadPlan> commented =
      WorkloadPlan::parse("# fleet\n\n" + text + "\n# end\n");
  ASSERT_TRUE(commented.has_value());
  EXPECT_EQ(*commented, plan);
}

TEST(WorkloadPlan, MalformedPlansFailWithLinePreciseErrors) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {"conga n=4", "unknown item kind"},
      {"groups n=0", "n must be positive"},
      {"groups n=4 min=9 max=3", "min > max"},
      {"flash group=1 at=ten", "unparsable number"},
      {"diurnal start=50 end=20", "start > end"},
      {"diurnal start=0 end=10 period=0", "period must be positive"},
      {"regionfail at=0 radius=0.7", "radius beyond the half ring"},
      {"groups n=4 bogus=1", "unknown key"},
      {"groups n=4 alpha=nan", "alpha not a finite number"},
      {"flash group=1 at=nan", "time not a finite number"},
      {"diurnal start=0 end=inf", "end not a finite number"},
      {"flash group=-1 at=0", "signed group id"},
      {"regionfail at=0 center=-3 radius=0.1 n=1", "signed center id"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(WorkloadPlan::parse(c.text, &error).has_value())
        << c.text << " should fail (" << c.why << ")";
    EXPECT_NE(error.find("line 1"), std::string::npos)
        << c.text << " error lacks a line number: " << error;
  }
  // The line number tracks the offending line, not the count of items.
  std::string error;
  EXPECT_FALSE(
      WorkloadPlan::parse("groups n=4\n# fine\ngroups n=0\n", &error)
          .has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(GenerateEvents, PureFunctionOfPlanDirectoryAndSeed) {
  const FrozenDirectory dir = small_world(96, 9);
  WorkloadPlan plan;
  plan.groups(8, 1.0, 2, 12)
      .flash(2, 30.0, 10, 1.0)
      .diurnal(40.0, 240.0, 100.0, 0.5, 0.05, 0.03)
      .region_fail(260.0, dir.ids()[10], 0.08, 4);

  const std::vector<SessionEvent> a =
      workload::generate_events(plan, dir, 11);
  const std::vector<SessionEvent> b =
      workload::generate_events(plan, dir, 11);
  EXPECT_EQ(a, b);  // bit-identical script, element for element
  ASSERT_FALSE(a.empty());

  // Time-sorted, and a different seed reshuffles the script.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].at_ms, a[i].at_ms);
  }
  EXPECT_NE(a, workload::generate_events(plan, dir, 12));

  // The regional burst fails exactly the configured count, all drawn
  // from the directory.
  std::size_t fails = 0;
  for (const SessionEvent& e : a) {
    if (e.op == SessionOp::kFail) {
      ++fails;
      EXPECT_TRUE(std::binary_search(dir.ids().begin(), dir.ids().end(),
                                     e.node));
    }
  }
  EXPECT_EQ(fails, 4u);
}

TEST(GenerateEvents, EmptyDirectoryEmitsNothing) {
  // No live node to draw a source or a joiner from: every step emits
  // nothing instead of indexing an empty id list.
  const FrozenDirectory dir = small_world(0, 1);
  ASSERT_EQ(dir.size(), 0u);
  WorkloadPlan plan;
  plan.groups(4, 1.0, 2, 8)
      .flash(2, 10.0, 4, 1.0)
      .diurnal(20.0, 60.0, 40.0, 0.5, 0.05, 0.03)
      .region_fail(80.0, 0, 0.1, 2);
  EXPECT_TRUE(workload::generate_events(plan, dir, 1).empty());
}

}  // namespace
}  // namespace cam
