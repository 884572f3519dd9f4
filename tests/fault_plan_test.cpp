// FaultPlan: DSL round-trips, parse diagnostics, event ordering, and
// the seeded property sweep — for any generated plan, to_string/parse
// is the identity, so a dumped plan always reproduces the run.
#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "util/rng.h"

namespace cam::fault {
namespace {

TEST(FaultPlan, BuilderSortsByTimeKeepingInsertionOrderOnTies) {
  FaultPlan plan;
  plan.heal(500).drop(0, 0.1).crash(500, 2).duplicate(0, 0.2, 3);
  const auto& ev = plan.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].kind, FaultKind::kDrop);       // t=0, added first
  EXPECT_EQ(ev[1].kind, FaultKind::kDuplicate);  // t=0, added second
  EXPECT_EQ(ev[2].kind, FaultKind::kHeal);       // t=500, added first
  EXPECT_EQ(ev[3].kind, FaultKind::kCrash);      // t=500, added second
  EXPECT_EQ(plan.duration(), 500);
}

TEST(FaultPlan, ToStringRendersCanonicalDsl) {
  FaultPlan plan;
  plan.drop(0, 0.25)
      .drop_link(100, 3, 9, 1)
      .duplicate(200, 0.5, 2)
      .reorder(300, 0.1, 40)
      .partition(400, 0.5)
      .partition_hosts(500, {1, 2, 3})
      .heal(600)
      .restart(700, 4)
      .clear(800);
  EXPECT_EQ(plan.to_string(),
            "at 0 drop p=0.25\n"
            "at 100 drop p=1 link=3:9\n"
            "at 200 dup p=0.5 copies=2\n"
            "at 300 reorder p=0.1 ms=40\n"
            "at 400 partition frac=0.5\n"
            "at 500 partition ids=1,2,3\n"
            "at 600 heal\n"
            "at 700 restart n=4\n"
            "at 800 clear\n");
}

TEST(FaultPlan, ParsesCommentsBlanksAndFields) {
  auto plan = FaultPlan::parse(
      "# warm-up faults\n"
      "\n"
      "at 0 drop p=0.1   # trailing comment\n"
      "at 1000 delay p=0.3 ms=25\n"
      "at 2000 join n=5\n");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->events().size(), 3u);
  EXPECT_EQ(plan->events()[0].kind, FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(plan->events()[1].ms, 25);
  EXPECT_EQ(plan->events()[2].count, 5);
}

TEST(FaultPlan, ParseErrorsNameTheLineAndCause) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("at 0 drop p=0.1\nat x drop p=0.1", &error));
  EXPECT_EQ(error, "line 2: bad time 'x'");

  EXPECT_FALSE(FaultPlan::parse("at 0 explode p=1", &error));
  EXPECT_EQ(error, "line 1: unknown fault kind 'explode'");

  EXPECT_FALSE(FaultPlan::parse("at 0 drop p=1.5", &error));
  EXPECT_EQ(error, "line 1: bad probability '1.5'");

  EXPECT_FALSE(FaultPlan::parse("at 0 drop", &error));
  EXPECT_EQ(error, "line 1: drop needs p=");

  EXPECT_FALSE(FaultPlan::parse("drop p=0.1", &error));
  EXPECT_EQ(error, "line 1: expected 'at <ms> <kind> ...'");

  EXPECT_FALSE(FaultPlan::parse("at 0 drop p=0.1 q=2", &error));
  EXPECT_EQ(error, "line 1: unknown key 'q'");

  EXPECT_FALSE(FaultPlan::parse("at 0 dup p=0.1 link=1:2", &error));
  EXPECT_EQ(error, "line 1: link= is only valid on drop");

  EXPECT_FALSE(FaultPlan::parse("at 0 partition frac=0.5 ids=1,2", &error));
  EXPECT_EQ(error, "line 1: partition needs exactly one of frac= / ids=");

  EXPECT_FALSE(FaultPlan::parse("at 0 crash", &error));
  EXPECT_EQ(error, "line 1: crash needs n=");

  // Numbers are finite, and ids and counts take no sign.
  EXPECT_FALSE(FaultPlan::parse("at nan drop p=0.1", &error));
  EXPECT_EQ(error, "line 1: bad time 'nan'");

  EXPECT_FALSE(FaultPlan::parse("at 0 drop p=nan", &error));
  EXPECT_EQ(error, "line 1: bad probability 'nan'");

  EXPECT_FALSE(FaultPlan::parse("at 0 delay p=0.5 ms=inf", &error));
  EXPECT_EQ(error, "line 1: bad ms 'inf'");

  EXPECT_FALSE(FaultPlan::parse("at inf clear", &error));
  EXPECT_EQ(error, "line 1: bad time 'inf'");

  EXPECT_FALSE(FaultPlan::parse("at 0 partition ids=-1", &error));
  EXPECT_EQ(error, "line 1: bad id '-1'");

  EXPECT_FALSE(FaultPlan::parse("at 0 drop p=0.1 link=-1:2", &error));
  EXPECT_EQ(error, "line 1: bad link '-1:2' (need from:to)");

  EXPECT_FALSE(
      FaultPlan::parse("at 0 regionfail center=-3 radius=0.1 n=1", &error));
  EXPECT_EQ(error, "line 1: bad center '-3'");
}

TEST(FaultPlan, RegionFailRoundTripsExactly) {
  FaultPlan plan;
  plan.region_fail(240, 1024, 0.1, 3).region_fail(500, 0, 0.5, 1);
  EXPECT_EQ(plan.to_string(),
            "at 240 regionfail center=1024 radius=0.1 n=3\n"
            "at 500 regionfail center=0 radius=0.5 n=1\n");
  const auto parsed = FaultPlan::parse(plan.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, plan);
  const auto& ev = parsed->events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, FaultKind::kRegionFail);
  EXPECT_EQ(ev[0].a, 1024u);
  EXPECT_DOUBLE_EQ(ev[0].radius, 0.1);
  EXPECT_EQ(ev[0].count, 3);
}

TEST(FaultPlan, RegionFailParseDiagnostics) {
  std::string error;
  EXPECT_FALSE(
      FaultPlan::parse("at 0 regionfail center=1 radius=0.6 n=2", &error));
  EXPECT_EQ(error, "line 1: bad radius '0.6' (need 0<f<=0.5)");

  EXPECT_FALSE(
      FaultPlan::parse("at 0 regionfail center=1 radius=0 n=2", &error));
  EXPECT_EQ(error, "line 1: bad radius '0' (need 0<f<=0.5)");

  EXPECT_FALSE(FaultPlan::parse("at 0 regionfail center=1 n=2", &error));
  EXPECT_EQ(error, "line 1: regionfail needs center=, radius= and n=");

  EXPECT_FALSE(FaultPlan::parse("at 0 regionfail radius=0.2 n=2", &error));
  EXPECT_EQ(error, "line 1: regionfail needs center=, radius= and n=");

  EXPECT_FALSE(FaultPlan::parse("at 0 crash n=2 center=5", &error));
  EXPECT_EQ(error, "line 1: center=/radius= are only valid on regionfail");

  EXPECT_FALSE(FaultPlan::parse("at 0 drop p=0.1 radius=0.2", &error));
  EXPECT_EQ(error, "line 1: center=/radius= are only valid on regionfail");
}

TEST(FaultPlan, MissingRequiredFieldsRejected) {
  EXPECT_FALSE(FaultPlan::parse("at 0 delay p=0.5"));   // no ms=
  EXPECT_FALSE(FaultPlan::parse("at 0 reorder ms=10"));  // no p=
  EXPECT_FALSE(FaultPlan::parse("at 0 partition"));      // no frac/ids
  EXPECT_FALSE(FaultPlan::parse("at 0 join n=0"));       // zero count
  EXPECT_FALSE(FaultPlan::parse("at 0 partition ids="));
  EXPECT_FALSE(FaultPlan::parse("at 0 drop p=0.1 link=12"));
  EXPECT_FALSE(FaultPlan::parse("at -5 clear"));
}

// Builds a pseudo-random but deterministic plan from a seed — the same
// generator the chaos property tests use.
FaultPlan random_plan(std::uint64_t seed) {
  Rng rng(seed);
  FaultPlan plan;
  int events = 1 + static_cast<int>(rng.next_below(12));
  SimTime t = 0;
  for (int i = 0; i < events; ++i) {
    t += static_cast<SimTime>(rng.next_below(2'000));
    double p = rng.next_below(100) / 100.0;  // two decimals: %g-exact
    switch (rng.next_below(11)) {
      case 0: plan.drop(t, p); break;
      case 1:
        plan.drop_link(t, rng.next_below(1'000), rng.next_below(1'000), p);
        break;
      case 2: plan.duplicate(t, p, 1 + static_cast<int>(rng.next_below(3))); break;
      case 3: plan.delay(t, p, static_cast<SimTime>(rng.next_below(200))); break;
      case 4: plan.reorder(t, p, static_cast<SimTime>(rng.next_below(100))); break;
      case 5: plan.partition(t, (1 + rng.next_below(98)) / 100.0); break;
      case 6: plan.heal(t); break;
      case 7: plan.crash(t, 1 + static_cast<int>(rng.next_below(4))); break;
      case 8: plan.join(t, 1 + static_cast<int>(rng.next_below(4))); break;
      case 9:
        plan.region_fail(t, rng.next_below(4'096),
                         (1 + rng.next_below(50)) / 100.0,
                         1 + static_cast<int>(rng.next_below(4)));
        break;
      default: plan.clear(t); break;
    }
  }
  return plan;
}

TEST(FaultPlan, HundredSeededPlansRoundTripExactly) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    FaultPlan plan = random_plan(seed);
    std::string text = plan.to_string();
    std::string error;
    auto reparsed = FaultPlan::parse(text, &error);
    ASSERT_TRUE(reparsed.has_value()) << "seed " << seed << ": " << error;
    EXPECT_EQ(*reparsed, plan) << "seed " << seed;
    EXPECT_EQ(reparsed->to_string(), text) << "seed " << seed;
  }
}

TEST(FaultPlan, SameSeedSamePlanDifferentSeedDifferentPlan) {
  EXPECT_EQ(random_plan(42), random_plan(42));
  EXPECT_NE(random_plan(42).to_string(), random_plan(43).to_string());
}

}  // namespace
}  // namespace cam::fault
