#include "sim/shard_group.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "runtime/shard_team.h"

namespace cam {
namespace {

TEST(ShardTeam, RunsEveryLaneAndReusesThreads) {
  runtime::ShardTeam team(4);
  std::vector<int> hits(4, 0);
  // Many rounds: the whole point is barrier reuse without respawning.
  for (int round = 0; round < 200; ++round) {
    team.run([&](std::size_t lane) { hits[lane] += 1; });
  }
  for (int h : hits) EXPECT_EQ(h, 200);
}

TEST(ShardTeam, SingleLaneRunsInline) {
  runtime::ShardTeam team(1);
  int hits = 0;
  team.run([&](std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(ShardMap, PartitionsIdSpaceContiguously) {
  ShardMap map{16, 4};
  EXPECT_EQ(map.of(0), 0u);
  EXPECT_EQ(map.of((1u << 14) - 1), 0u);
  EXPECT_EQ(map.of(1u << 14), 1u);
  EXPECT_EQ(map.of((1u << 16) - 1), 3u);
  // Regions are monotone in id.
  std::size_t prev = 0;
  for (Id id = 0; id < (1u << 16); id += 97) {
    std::size_t s = map.of(id);
    EXPECT_GE(s, prev);
    EXPECT_LT(s, 4u);
    prev = s;
  }
}

// Cross-shard ping-pong: two shards bounce an event back and forth with
// latency L; the trace must be the exact alternating time sequence.
TEST(ShardGroup, CrossShardHandOffPreservesTimeOrder) {
  const SimTime kL = 5.0;
  ShardGroup group(2, kL);
  runtime::ShardTeam team(2);

  std::vector<std::pair<int, SimTime>> trace;  // (shard, time); shard 0 only
  // Ping-pong closure chain: shard 0 at t, shard 1 at t + L, ...
  struct Bouncer {
    ShardGroup* g;
    std::vector<std::pair<int, SimTime>>* trace;
    int left;
    void bounce(std::size_t s) {
      // Only shard 0's lane writes the trace (its own events).
      if (s == 0) trace->emplace_back(0, g->sim(0).now());
      if (--left <= 0) return;
      const std::size_t d = 1 - s;
      g->post(s, d, g->sim(s).now() + 5.0,
              [this, d] { bounce(d); });
    }
  };
  Bouncer b{&group, &trace, 8};
  group.sim(0).after(1.0, [&b] { b.bounce(0); });
  const std::uint64_t events = group.run_until_quiet(team);

  EXPECT_EQ(events, 8u);
  ASSERT_EQ(trace.size(), 4u);  // every other bounce lands on shard 0
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace[i].second, 1.0 + 2 * 5.0 * static_cast<double>(i));
  }
}

TEST(ShardGroup, RunUntilAdvancesEveryClock) {
  ShardGroup group(3, 2.0);
  runtime::ShardTeam team(3);
  int fired = 0;
  group.sim(1).after(10.0, [&fired] { ++fired; });
  group.run_until(team, 50.0);
  EXPECT_EQ(fired, 1);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(group.sim(s).now(), 50.0);
  }
  // A later event stays pending past the horizon.
  group.sim(2).after(100.0, [&fired] { ++fired; });
  group.run_until(team, 60.0);
  EXPECT_EQ(fired, 1);
}

// Lane s runs shard s, so only a team of exactly shards() lanes can run
// a window: a smaller one would never run the last shard, a larger one
// would index past it. Both are rejected before anything runs.
TEST(ShardGroup, RunOnAMismatchedTeamThrows) {
  ShardGroup group(2, 1.0);
  int fired = 0;
  group.sim(0).after(1.0, [&fired] { ++fired; });
  group.sim(1).after(2.0, [&fired] { ++fired; });
  for (std::size_t lanes : {1u, 3u}) {
    runtime::ShardTeam team(lanes);
    EXPECT_THROW(group.run_until_quiet(team), std::invalid_argument)
        << lanes << " lanes";
    EXPECT_THROW(group.run_until(team, 10.0), std::invalid_argument)
        << lanes << " lanes";
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(group.events_executed(), 0u);

  runtime::ShardTeam team(2);
  EXPECT_EQ(group.run_until_quiet(team), 2u);
  EXPECT_EQ(fired, 2);
}

// Deterministic replay: an irregular cross-shard cascade produces the
// same per-shard execution counts and final clocks on every run.
TEST(ShardGroup, FixedShardCountIsDeterministic) {
  auto run_once = [](std::vector<std::uint64_t>& counts) {
    const std::size_t kShards = 4;
    ShardGroup group(kShards, 3.0);
    runtime::ShardTeam team(kShards);
    // A little deterministic storm: each event reschedules two children
    // on pseudo-random shards until a depth budget runs out.
    struct Storm {
      ShardGroup* g;
      void fire(std::size_t s, std::uint64_t key, int depth) {
        if (depth >= 6) return;
        for (int c = 0; c < 2; ++c) {
          std::uint64_t k = key * 6364136223846793005ULL + 1442695040888963407ULL + static_cast<std::uint64_t>(c);
          const std::size_t d = static_cast<std::size_t>(k >> 62);
          const SimTime dt = 3.0 + static_cast<double>((k >> 20) & 1023) / 256.0;
          const SimTime t = g->sim(s).now() + dt;
          auto ev = [this, d, k, depth] { fire(d, k, depth + 1); };
          if (d == s) {
            g->sim(s).at(t, ev);
          } else {
            g->post(s, d, t, ev);
          }
        }
      }
    };
    Storm storm{&group};
    group.sim(0).after(0.5, [&storm] { storm.fire(0, 0x12345, 0); });
    group.run_until_quiet(team);
    counts.clear();
    for (std::size_t s = 0; s < kShards; ++s) {
      counts.push_back(group.sim(s).events_executed());
    }
  };
  std::vector<std::uint64_t> a, b;
  run_once(a);
  run_once(b);
  EXPECT_EQ(a, b);
  std::uint64_t total = 0;
  for (std::uint64_t c : a) total += c;
  EXPECT_EQ(total, 1u + 2 + 4 + 8 + 16 + 32 + 64);  // full binary cascade
}

// One shard stepped through lookahead windows must execute the exact
// event order of a plain serial Simulator.
TEST(ShardGroup, SingleShardMatchesSerialSimulator) {
  auto workload = [](auto&& schedule) {
    // Events that spawn sub-events at fractional times, exercising the
    // late-arrival path within a slot.
    for (int i = 0; i < 20; ++i) {
      schedule(static_cast<SimTime>(i) * 1.7, i);
    }
  };
  std::vector<int> serial_order, sharded_order;

  Simulator plain;
  workload([&](SimTime t, int tag) {
    plain.at(t, [&plain, &serial_order, tag] {
      serial_order.push_back(tag);
      plain.after(0.25, [&serial_order, tag] {
        serial_order.push_back(1000 + tag);
      });
    });
  });
  plain.run();

  ShardGroup group(1, 0.0);  // zero lookahead is legal at S = 1
  runtime::ShardTeam team(1);
  Simulator& sim = group.sim(0);
  workload([&](SimTime t, int tag) {
    sim.at(t, [&sim, &sharded_order, tag] {
      sharded_order.push_back(tag);
      sim.after(0.25, [&sharded_order, tag] {
        sharded_order.push_back(1000 + tag);
      });
    });
  });
  group.run_until_quiet(team);

  EXPECT_EQ(serial_order, sharded_order);
}

}  // namespace
}  // namespace cam
