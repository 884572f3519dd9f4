// Sharded oracle-mode multicast: the paper's MULTICAST routines executed
// on the partitioned event engine (sim/shard_group.h).
//
// The overlay (tables already built — converged or oracle-filled, with
// or without post-churn staleness) is treated as a frozen, shared
// read-only structure; what gets sharded is the *dissemination*: each
// delivery event executes on the home shard of the receiving node
// (ShardMap id-region), cross-shard hops ride the group's outboxes, and
// every shard records deliveries of its own nodes into a local partial
// MulticastTree. The partials merge with merge_min into one tree whose
// delivery_signature() is compared against the serial engine.
//
// Semantics vs the serial drivers:
//
//   * CAM-Chord forwards from a node's first recorded delivery only —
//     identical to the serial engine. With a tie-free latency model the
//     delivered tree is bit-equal to serial for every shard count.
//   * CAM-Koorde swaps the serial sender-side "has received or is
//     receiving" check (inherently global state) for receiver-side
//     deduplication: every node forwards to its whole resolved neighbor
//     set exactly once, on its earliest delivery; repeats are counted
//     as duplicates at the receiver. The delivered tree is the
//     earliest-arrival flood tree — a pure function of link latencies,
//     so it is shard-count-invariant (the identity the tests gate) but
//     intentionally *not* the serial tree, whose suppression races make
//     arrival times execution-order-dependent.
//
// Thread contract: the overlay must not be mutated while a sharded cast
// runs (all shards read its tables concurrently), matching the serial
// drivers, which also run each multicast to completion before any churn.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "camchord/net.h"
#include "camkoorde/net.h"
#include "multicast/tree.h"
#include "runtime/shard_team.h"
#include "sim/latency.h"
#include "sim/shard_group.h"

namespace cam {

struct ShardedCastResult {
  MulticastTree tree;                // merged over shards
  std::uint64_t data_messages = 0;   // payload sends (all shards)
  std::uint64_t events = 0;          // engine events executed
};

namespace detail {

/// Per-shard cast state, one cache line apart so concurrent recording
/// never contends.
struct alignas(64) CastShard {
  explicit CastShard(Id source) : tree(source) {}
  MulticastTree tree;
  std::uint64_t data_messages = 0;
  std::vector<camchord::ChildAssignment> child_scratch;
  std::vector<Id> neighbor_scratch;
};

template <typename Derived, typename Overlay>
class ShardedCastBase {
 public:
  ShardedCastResult run(Id source, runtime::ShardTeam& team) {
    ShardedCastResult res{MulticastTree(source), 0, 0};
    if (!overlay_.contains(source)) return res;
    res.tree.reserve(overlay_.size());
    shards_.clear();
    shards_.reserve(map_.shards);
    for (std::uint32_t s = 0; s < map_.shards; ++s) {
      shards_.emplace_back(source);
      // Home-shard recording: each shard sees ~n/S deliveries.
      shards_.back().tree.reserve(overlay_.size() / map_.shards + 16);
    }
    const std::size_t s0 = map_.of(source);
    group_.sim(s0).after(0, [this, s0, source] {
      static_cast<Derived*>(this)->start(s0, source);
    });
    res.events = group_.run_until_quiet(team);
    for (CastShard& ps : shards_) {
      res.tree.merge_min(ps.tree);
      res.data_messages += ps.data_messages;
    }
    return res;
  }

 protected:
  ShardedCastBase(const Overlay& overlay, const LatencyModel& lat,
                  const ShardMap& map)
      : overlay_(overlay), lat_(lat), map_(map),
        group_(map.shards, lat.min_latency()) {
    // The group rounds zero shards up to one, but a zero map would leave
    // the cast no CastShard for that one shard's hops to record into.
    if (map.shards == 0) {
      throw std::invalid_argument("sharded cast: ShardMap has zero shards");
    }
  }

  /// Routes a payload hop x -> ch: schedules the Derived::deliver event
  /// on ch's home shard at the link-latency arrival time.
  template <typename... Args>
  void hop(std::size_t s, Id x, Id ch, Args... args) {
    ++shards_[s].data_messages;
    const SimTime arrive = group_.sim(s).now() + lat_.latency(x, ch);
    const std::size_t d = map_.of(ch);
    auto ev = [this, d, x, ch, args...] {
      static_cast<Derived*>(this)->deliver(d, x, ch, args...);
    };
    if (d == s) {
      group_.sim(s).at(arrive, std::move(ev));
    } else {
      group_.post(s, d, arrive, std::move(ev));
    }
  }

  const Overlay& overlay_;
  const LatencyModel& lat_;
  ShardMap map_;
  ShardGroup group_;
  std::vector<CastShard> shards_;
};

class ShardedChordCast
    : public ShardedCastBase<ShardedChordCast, camchord::CamChordNet> {
 public:
  ShardedChordCast(const camchord::CamChordNet& overlay,
                   const LatencyModel& lat, const ShardMap& map)
      : ShardedCastBase(overlay, lat, map) {}

  void start(std::size_t s, Id source) {
    forward(s, source, overlay_.ring().sub(source, 1), 0);
  }

  void deliver(std::size_t s, Id parent, Id x, Id bound, int depth) {
    if (!overlay_.contains(x)) return;  // failed before arrival
    if (!shards_[s].tree.record_min(parent, x, depth,
                                    group_.sim(s).now())) {
      return;  // duplicate (stale-table overlap): recorded, not forwarded
    }
    forward(s, x, bound, depth);
  }

 private:
  void forward(std::size_t s, Id x, Id k, int depth) {
    if (k == x) return;
    overlay_.multicast_children(
        x, k, shards_[s].child_scratch,
        [&](Id ch, Id bound) { hop(s, x, ch, bound, depth + 1); });
  }
};

class ShardedKoordeCast
    : public ShardedCastBase<ShardedKoordeCast, camkoorde::CamKoordeNet> {
 public:
  ShardedKoordeCast(const camkoorde::CamKoordeNet& overlay,
                    const LatencyModel& lat, const ShardMap& map)
      : ShardedCastBase(overlay, lat, map) {}

  void start(std::size_t s, Id source) { forward(s, source, 0); }

  void deliver(std::size_t s, Id parent, Id y, int depth) {
    if (!overlay_.contains(y)) return;
    if (!shards_[s].tree.record_min(parent, y, depth,
                                    group_.sim(s).now())) {
      return;  // receiver-side duplicate check
    }
    forward(s, y, depth);
  }

 private:
  void forward(std::size_t s, Id x, int depth) {
    std::vector<Id>& nbrs = shards_[s].neighbor_scratch;
    overlay_.neighbors_into(x, nbrs);
    for (Id y : nbrs) hop(s, x, y, depth + 1);
  }
};

}  // namespace detail

/// One sharded CAM-Chord multicast from `source`. Throws
/// std::invalid_argument when map.shards is 0 or the team's size is not
/// map.shards.
inline ShardedCastResult sharded_multicast(
    const camchord::CamChordNet& overlay, const LatencyModel& lat,
    Id source, const ShardMap& map, runtime::ShardTeam& team) {
  detail::ShardedChordCast cast(overlay, lat, map);
  return cast.run(source, team);
}

/// One sharded CAM-Koorde multicast from `source` (receiver-side
/// duplicate suppression; see the file comment).
inline ShardedCastResult sharded_multicast(
    const camkoorde::CamKoordeNet& overlay, const LatencyModel& lat,
    Id source, const ShardMap& map, runtime::ShardTeam& team) {
  detail::ShardedKoordeCast cast(overlay, lat, map);
  return cast.run(source, team);
}

}  // namespace cam
