#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace cam {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(3.0, [&] { order.push_back(3); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] {
    ++fired;
    sim.after(1.0, [&] {
      ++fired;
      sim.after(1.0, [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(2.0, [&] { ++fired; });
  sim.at(3.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, MaxEventsCap) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.at(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pending(), 6u);
}

TEST(Simulator, StepOnEmptyReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

// ---- Timer-wheel internals: slot and chunk boundaries, far future. ----
// The wheel has one level of 1 ms ticks over the current 1024-tick
// chunk; events in later chunks wait in a heap until their chunk moves
// into the wheel. These tests pin behavior at each boundary without
// reaching into private state. Their 1024 * 512 ms "superchunk" is just
// a far-future distance: 512 chunks out.

TEST(SimulatorWheel, FractionalTimesWithinOneTickStayOrdered) {
  Simulator sim;
  std::vector<double> order;
  // All land in the same 1 ms slot; exact (time, seq) must still rule.
  sim.at(5.75, [&] { order.push_back(5.75); });
  sim.at(5.25, [&] { order.push_back(5.25); });
  sim.at(5.5, [&] { order.push_back(5.5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<double>{5.25, 5.5, 5.75}));
}

TEST(SimulatorWheel, ChunkBoundaryCascadePreservesOrder) {
  Simulator sim;
  std::vector<double> order;
  // Straddle the first chunk boundary at t = 1024 ms: the events past it
  // wait in the later-chunk heap until their chunk moves into the wheel.
  const std::vector<double> times = {1023.0, 1023.5, 1024.0,
                                     1024.5, 1025.0, 2047.5, 2048.25};
  std::vector<double> shuffled = {2048.25, 1023.5, 1025.0, 1024.0,
                                  2047.5,  1023.0, 1024.5};
  for (double t : shuffled) {
    sim.at(t, [&order, t] { order.push_back(t); });
  }
  sim.run();
  EXPECT_EQ(order, times);
}

TEST(SimulatorWheel, FarFutureOverflowHandsBackToWheels) {
  Simulator sim;
  std::vector<double> order;
  // Events hundreds of chunks out (1024 * 512 ms = 524288 ms and beyond)
  // wait in the later-chunk heap; the engine must hand them back one
  // whole chunk at a time when reached.
  const double super_ms = 1024.0 * 512.0;
  const std::vector<double> times = {
      1.0, super_ms - 0.5, super_ms + 0.25, super_ms + 1.5,
      3 * super_ms + 7.125, 3 * super_ms + 7.25};
  std::vector<double> shuffled = {3 * super_ms + 7.25, super_ms + 0.25, 1.0,
                                  3 * super_ms + 7.125, super_ms + 1.5,
                                  super_ms - 0.5};
  for (double t : shuffled) {
    sim.at(t, [&order, t] { order.push_back(t); });
  }
  sim.run();
  EXPECT_EQ(order, times);
  EXPECT_DOUBLE_EQ(sim.now(), 3 * super_ms + 7.25);
}

TEST(SimulatorWheel, SelfSchedulingMarchesAcrossAllLevels) {
  Simulator sim;
  // A timer hopping in uneven strides crosses tick, chunk, and super
  // boundaries; a second fixed-period timer interleaves with it.
  std::vector<std::pair<int, double>> log;
  std::uint64_t hops = 0;
  std::function<void()> hop = [&] {
    log.emplace_back(1, sim.now());
    if (++hops < 2000) sim.after(300.5, hop);
  };
  std::uint64_t ticks = 0;
  std::function<void()> tick = [&] {
    log.emplace_back(2, sim.now());
    if (++ticks < 3000) sim.after(250.25, tick);
  };
  sim.after(0.5, hop);
  sim.after(0.75, tick);
  sim.run();
  ASSERT_EQ(log.size(), 5000u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    ASSERT_LE(log[i - 1].second, log[i].second) << "time went backwards";
  }
  EXPECT_GT(sim.now(), 1024.0 * 512.0);  // crossed a superchunk
}

TEST(SimulatorWheel, TieOnTimeAcrossStructuresBreaksBySeq) {
  Simulator sim;
  std::vector<int> order;
  // Same absolute time, scheduled at different moments so the events
  // route through different structures (overflow vs wheel vs current
  // slot); insertion order must still win.
  const double t = 2.0 * 1024.0 * 512.0 + 3.0;  // two supers out
  sim.at(t, [&] { order.push_back(0); });       // via overflow
  sim.at(1.0, [&, t] {
    sim.at(t, [&] { order.push_back(1); });     // via overflow, later seq
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SimulatorWheel, RunUntilIdleJumpThenSchedule) {
  Simulator sim;
  // run_until advances now() past the wheel cursor; scheduling relative
  // to the new now() must still execute at the right times.
  sim.run_until(100000.5);
  EXPECT_DOUBLE_EQ(sim.now(), 100000.5);
  std::vector<double> order;
  sim.at(sim.now(), [&] { order.push_back(0.0); });  // exactly now
  sim.after(0.25, [&] { order.push_back(0.25); });
  sim.after(2000.0, [&] { order.push_back(2000.0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<double>{0.0, 0.25, 2000.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 102000.5);
}

TEST(SimulatorWheel, PlacementsIntoAPeekedTickKeepTimeSeqOrder) {
  // run_until and peek_next_time make the tick of the next event current
  // before anything in it runs. Events then placed into that tick, at,
  // after or before the latest time already pending there, in a random
  // order, must run in exact (time, seq) order whichever structure holds
  // them. Each seeded schedule is checked against a reference sort.
  struct Ref {
    double time;
    std::uint64_t id;  // at() call order, hence the engine's seq order
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Simulator sim;
    Rng rng(seed);
    std::vector<Ref> scheduled;
    std::vector<bool> done;
    std::vector<std::uint64_t> ran;
    std::function<void(double)> add = [&](double t) {
      const std::uint64_t id = scheduled.size();
      scheduled.push_back({t, id});
      done.push_back(false);
      sim.at(t, [&, id] {
        ran.push_back(id);
        done[id] = true;
        // Some handlers schedule into their own tick or the next one.
        if (rng.chance(0.2)) add(sim.now() + 0.125 * rng.next_below(12));
      });
    };
    auto eighths = [&rng] { return rng.next_below(8) / 8.0; };

    for (int i = 0; i < 60; ++i) add(rng.next_below(2500) + eighths());
    for (int round = 0; round < 200 && !sim.empty(); ++round) {
      if (rng.chance(0.5)) {
        sim.run_until(sim.now() + rng.next_below(40) + eighths());
        if (sim.empty()) break;
      }
      const double tick = std::floor(sim.peek_next_time());
      double last = 0;
      for (const Ref& r : scheduled) {
        if (!done[r.id] && std::floor(r.time) == tick) {
          last = std::max(last, r.time);
        }
      }
      const double lo = std::max(sim.now(), tick);
      std::vector<double> times = {
          last,                                  // equal
          last + (tick + 1 - last) * 0.5,        // after, same tick
          lo + (last - lo) * rng.next_double(),  // before (or equal)
      };
      for (std::size_t k = times.size(); k > 1; --k) {
        std::swap(times[k - 1], times[rng.next_below(k)]);
      }
      for (double t : times) add(t);
      sim.run(rng.next_below(3));  // a few steps between peeks
    }
    sim.run();

    std::vector<Ref> want = scheduled;
    std::sort(want.begin(), want.end(), [](const Ref& a, const Ref& b) {
      return a.time != b.time ? a.time < b.time : a.id < b.id;
    });
    ASSERT_EQ(ran.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(ran[i], want[i].id) << "seed " << seed << " position " << i;
    }
  }
}

// ---- at() rejects scheduling in the past. ----
// Policy (src/sim/simulator.h): asserts in debug-style builds (this
// project keeps asserts on even in Release unless CAM_FORCE_NDEBUG is
// set); if asserts are compiled out, the event clamps to now() and runs
// after everything already scheduled for now(), in seq order.

#ifdef NDEBUG
TEST(SimulatorPastScheduling, ClampsToNowWithAssertsOff) {
  Simulator sim;
  std::vector<int> order;
  sim.at(10.0, [&] {
    sim.at(3.0, [&] { order.push_back(1); });  // the past: clamps to 10.0
    sim.at(10.0, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // clamped first: lower seq
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}
#else
using SimulatorPastSchedulingDeathTest = testing::Test;
TEST(SimulatorPastSchedulingDeathTest, AssertsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator sim;
  sim.at(10.0, [] {});
  sim.run();
  ASSERT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_DEATH(sim.at(3.0, [] {}), "scheduling in the past");
}
#endif

TEST(Latency, ConstantModel) {
  ConstantLatency lat(2.5);
  EXPECT_DOUBLE_EQ(lat.latency(1, 2), 2.5);
  EXPECT_DOUBLE_EQ(lat.latency(7, 7), 2.5);  // constant ignores endpoints
}

TEST(Latency, UniformIsSymmetricDeterministicBounded) {
  UniformLatency lat(10, 50, 99);
  for (Id a = 0; a < 30; ++a) {
    for (Id b = 0; b < 30; ++b) {
      if (a == b) {
        EXPECT_DOUBLE_EQ(lat.latency(a, b), 0.0);
        continue;
      }
      double l1 = lat.latency(a, b);
      EXPECT_GE(l1, 10.0);
      EXPECT_LE(l1, 50.0);
      EXPECT_DOUBLE_EQ(l1, lat.latency(b, a));
      EXPECT_DOUBLE_EQ(l1, lat.latency(a, b));  // stable across calls
    }
  }
}

TEST(Latency, UniformVariesAcrossLinks) {
  UniformLatency lat(0, 100, 1);
  double l1 = lat.latency(1, 2);
  double l2 = lat.latency(1, 3);
  double l3 = lat.latency(2, 3);
  EXPECT_FALSE(l1 == l2 && l2 == l3);
}

TEST(Latency, UniformSeedChangesDraws) {
  UniformLatency a(0, 100, 1), b(0, 100, 2);
  int equal = 0;
  for (Id i = 0; i < 50; ++i) equal += (a.latency(i, i + 1) == b.latency(i, i + 1));
  EXPECT_LT(equal, 5);
}

TEST(Latency, TorusSymmetricAndAboveBase) {
  TorusLatency lat(5, 100, 7);
  for (Id a = 0; a < 20; ++a) {
    for (Id b = a + 1; b < 20; ++b) {
      double l = lat.latency(a, b);
      EXPECT_GE(l, 5.0);
      // max torus distance sqrt(0.5) ~ .707, +10% jitter, +base.
      EXPECT_LE(l, 5.0 + 100 * 0.708 * 1.1);
      EXPECT_DOUBLE_EQ(l, lat.latency(b, a));
    }
  }
}

TEST(Network, DeliversAfterLatencyAndCounts) {
  Simulator sim;
  ConstantLatency lat(3.0);
  Network net(sim, lat);
  double delivered_at = -1;
  net.send(1, 2, 1000, [&] { delivered_at = sim.now(); }, MsgClass::kData);
  net.send(1, 3, 64, [] {}, MsgClass::kControl);
  net.send(1, 3, 64, [] {}, MsgClass::kMaintenance);
  sim.run();
  EXPECT_DOUBLE_EQ(delivered_at, 3.0);
  EXPECT_EQ(net.stats().messages[static_cast<int>(MsgClass::kData)], 1u);
  EXPECT_EQ(net.stats().bytes[static_cast<int>(MsgClass::kData)], 1000u);
  EXPECT_EQ(net.stats().messages[static_cast<int>(MsgClass::kControl)], 1u);
  EXPECT_EQ(net.stats().messages[static_cast<int>(MsgClass::kMaintenance)], 1u);
  EXPECT_EQ(net.stats().total_messages(), 3u);
  EXPECT_EQ(net.stats().total_bytes(), 1128u);
}

TEST(Network, ResetStatsZeroes) {
  Simulator sim;
  ConstantLatency lat(1.0);
  Network net(sim, lat);
  net.send(1, 2, 10, [] {});
  net.reset_stats();
  EXPECT_EQ(net.stats().total_messages(), 0u);
  EXPECT_EQ(net.stats().total_bytes(), 0u);
}

}  // namespace
}  // namespace cam
