// Serial == sharded identity for oracle-mode multicast, on the A3 churn
// shape: build, oracle-converge, multicast from several sources, fail a
// fraction abruptly, multicast again over the stale tables. The latency
// model is tie-free (uniform per-pair draws), so the delivered tree is a
// pure function of link latencies.
//
// Two comparison strengths:
//   * exact delivery_signature() — includes arrival times; holds between
//     sharded runs at any shard count (they all start at virtual 0) and
//     against the serial engine when its clock also starts at 0.
//   * structural (child, parent, depth) equality — time-free; holds
//     against the serial engine always (later serial multicasts start at
//     a nonzero clock, which shifts absolute times but not the tree).
#include "overlay/sharded_cast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "camchord/net.h"
#include "camkoorde/net.h"
#include "util/rng.h"
#include "workload/churn.h"

namespace cam {
namespace {

constexpr std::uint32_t kBits = 16;
constexpr std::size_t kN = 500;
constexpr std::size_t kSources = 3;

using TreeShape = std::vector<std::tuple<Id, Id, int>>;

TreeShape shape_of(const MulticastTree& tree) {
  TreeShape v;
  v.reserve(tree.size());
  for (const auto& [node, rec] : tree.entries()) {
    v.emplace_back(node, rec.parent, rec.depth);
  }
  std::sort(v.begin(), v.end());
  return v;
}

struct Fixture {
  RingSpace ring{kBits};
  Simulator sim;
  UniformLatency lat{2.0, 9.0, 0xfee1};
  Network net{sim, lat};
  Rng rng{77};

  template <typename Net>
  void build(Net& overlay) {
    std::vector<Id> ids;
    while (ids.size() < kN) {
      Id id = rng.next_below(ring.size());
      if (std::find(ids.begin(), ids.end(), id) == ids.end())
        ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    auto info = [&] {
      return NodeInfo{static_cast<std::uint32_t>(rng.uniform(4, 10)),
                      400 + rng.next_double() * 600};
    };
    overlay.bootstrap(ids[0], info());
    for (std::size_t i = 1; i < ids.size(); ++i) {
      ASSERT_TRUE(overlay.join(ids[i], info(), ids[i - 1]));
    }
    overlay.oracle_fill();
  }

  std::vector<Id> pick_sources(const std::vector<Id>& members) {
    std::vector<Id> out;
    for (std::size_t s = 0; s < kSources; ++s) {
      out.push_back(members[rng.next_below(members.size())]);
    }
    return out;
  }
};

template <typename Net>
std::vector<ShardedCastResult> sharded_round(const Net& overlay,
                                             const LatencyModel& lat,
                                             const std::vector<Id>& sources,
                                             std::uint32_t shards) {
  ShardMap map{kBits, shards};
  runtime::ShardTeam team(shards);
  std::vector<ShardedCastResult> out;
  for (Id src : sources) {
    out.push_back(sharded_multicast(overlay, lat, src, map, team));
    EXPECT_GT(out.back().events, 0u);
  }
  return out;
}

TEST(ShardedCast, CamChordMatchesSerialAcrossShardCounts) {
  Fixture fx;
  camchord::CamChordNet overlay(fx.ring, fx.net);
  fx.build(overlay);

  auto round = [&](const char* phase, bool expect_full) {
    auto members = overlay.members_sorted();
    auto sources = fx.pick_sources(members);
    const bool clock_zero = fx.sim.now() == 0;
    std::vector<TreeShape> serial_shapes;
    std::vector<std::uint64_t> serial_sigs;
    for (Id src : sources) {
      MulticastTree tree = overlay.multicast(src);
      if (expect_full) {
        EXPECT_EQ(tree.size(), overlay.size()) << phase;
      }
      serial_shapes.push_back(shape_of(tree));
      serial_sigs.push_back(tree.delivery_signature());
    }
    std::vector<std::uint64_t> first_sigs;  // per shard count
    for (std::uint32_t shards : {1u, 2u, 8u}) {
      auto results = sharded_round(overlay, fx.lat, sources, shards);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(shape_of(results[i].tree), serial_shapes[i])
            << phase << " shards=" << shards << " source#" << i;
        if (i == 0) first_sigs.push_back(results[i].tree.delivery_signature());
      }
      // The serial engine's clock started at 0 only for the very first
      // multicast of the run; there absolute times (hence exact
      // signatures) must agree too.
      if (clock_zero) {
        EXPECT_EQ(first_sigs.back(), serial_sigs[0])
            << phase << " shards=" << shards;
      }
    }
    // Sharded runs always start at virtual 0: exact across shard counts.
    for (std::size_t i = 1; i < first_sigs.size(); ++i) {
      EXPECT_EQ(first_sigs[i], first_sigs[0]) << phase;
    }
  };

  round("converged", true);
  workload::fail_random_fraction(overlay, 0.15, fx.rng);
  round("post-churn", false);
}

TEST(ShardedCast, CamKoordeShardCountInvariant) {
  Fixture fx;
  camkoorde::CamKoordeNet overlay(fx.ring, fx.net);
  fx.build(overlay);

  auto round = [&](const char* phase, bool expect_full) {
    auto members = overlay.members_sorted();
    auto sources = fx.pick_sources(members);
    // The koorde sharded driver swaps sender-side suppression for
    // receiver-side dedupe (see sharded_cast.h), so the reference is
    // the one-shard sharded run, not the serial engine.
    auto reference = sharded_round(overlay, fx.lat, sources, 1u);
    if (expect_full) {
      EXPECT_EQ(reference[0].tree.size(), overlay.size()) << phase;
    }
    for (std::uint32_t shards : {2u, 8u}) {
      auto results = sharded_round(overlay, fx.lat, sources, shards);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(results[i].tree.delivery_signature(),
                  reference[i].tree.delivery_signature())
            << phase << " shards=" << shards << " source#" << i;
        EXPECT_EQ(results[i].data_messages, reference[i].data_messages)
            << phase << " shards=" << shards << " source#" << i;
      }
    }
  };

  round("converged", true);
  workload::fail_random_fraction(overlay, 0.15, fx.rng);
  round("post-churn", false);
}

// Message-count parity: the sharded chord driver must send exactly the
// serial count (one payload per resolved child), shard-count invariant.
TEST(ShardedCast, CamChordMessageCountMatchesSerial) {
  Fixture fx;
  camchord::CamChordNet overlay(fx.ring, fx.net);
  fx.build(overlay);
  Id src = overlay.members_sorted().front();

  auto before = fx.net.stats();
  (void)overlay.multicast(src);
  auto after = fx.net.stats();
  const std::uint64_t serial_msgs =
      after.messages[static_cast<int>(MsgClass::kData)] -
      before.messages[static_cast<int>(MsgClass::kData)];

  for (std::uint32_t shards : {1u, 4u}) {
    ShardMap map{kBits, shards};
    runtime::ShardTeam team(shards);
    ShardedCastResult r = sharded_multicast(overlay, fx.lat, src, map, team);
    EXPECT_EQ(r.data_messages, serial_msgs) << "shards=" << shards;
  }
}

// A zero-shard map leaves the cast no per-shard state for its one group
// shard, so it is rejected before any hop, for both CAMs.
TEST(ShardedCast, ZeroShardMapThrows) {
  Fixture fx;
  camchord::CamChordNet chord(fx.ring, fx.net);
  fx.build(chord);
  camkoorde::CamKoordeNet koorde(fx.ring, fx.net);
  fx.build(koorde);
  const ShardMap map{kBits, 0};
  runtime::ShardTeam team(1);
  EXPECT_THROW(sharded_multicast(chord, fx.lat,
                                 chord.members_sorted().front(), map, team),
               std::invalid_argument);
  EXPECT_THROW(sharded_multicast(koorde, fx.lat,
                                 koorde.members_sorted().front(), map, team),
               std::invalid_argument);
}

}  // namespace
}  // namespace cam
