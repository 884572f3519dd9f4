// ShardGroup: the partitioned discrete-event engine.
//
// A group of S independent Simulators (each with its own event slab and
// timer wheel) advances virtual time together through conservative,
// barrier-synchronized windows. The synchronization rule is classic
// lookahead (CMB-style null-message-free windowing):
//
//   Let L be the one-way latency floor of the link model
//   (LatencyModel::min_latency(), > 0 for every shardable model). If
//   every cross-shard interaction is a message that arrives at least L
//   after it was sent, then a window that executes only events with
//   time in (W_prev, W] where W = max(t_min, W_prev + L) — t_min being
//   the globally earliest pending event — can never receive a
//   cross-shard arrival at or before W: an event at time t > W_prev
//   produces arrivals at >= t + L > W_prev + L >= W (and when W = t_min
//   > W_prev + L, all window events sit at exactly t_min, whose
//   arrivals land > t_min). So shards run a window completely
//   independently; outgoing cross-shard actions queue in single-writer
//   outboxes and are injected at the next barrier, always in the
//   strict future of every shard's clock.
//
// Determinism: for a fixed shard count, execution is a pure function of
// the initial event set. Window boundaries depend only on event times;
// within a window each Simulator is serially deterministic; and the
// barrier injects outboxes in a canonical order (destination-major,
// then source shard ascending, then emission order), so destination
// sequence numbers are reproducible run to run. S = 1 degenerates to a
// single Simulator stepped through run_until slices — an identical
// execution order to a plain serial run() (window slicing is pure
// cursor motion).
//
// Thread contract: outbox cell (src, dst) is written only by src's lane
// during a window and drained only by the caller thread at the barrier;
// the ShardTeam barrier provides the happens-before edges. post() with
// an arrival time inside the current window is a protocol bug (it would
// mean a cross-shard interaction faster than the declared latency
// floor) and is asserted against.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ids/ring.h"
#include "runtime/shard_team.h"
#include "sim/simulator.h"

namespace cam {

/// Maps ring ids to shard indices by contiguous id-region: shard =
/// floor(id * S / 2^bits). Region locality keeps intra-region traffic
/// (successor chains, nearby table entries) on one shard.
struct ShardMap {
  std::uint32_t bits = 0;    // ring ids live in [0, 2^bits)
  std::uint32_t shards = 1;

  std::size_t of(Id id) const {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(id) * shards) >> bits);
  }
};

class ShardGroup {
 public:
  /// `lookahead` is the conservative window width L (ms): a lower bound
  /// on the virtual-time distance of every cross-shard interaction.
  /// Must be > 0 unless shards == 1 (a zero floor makes the model
  /// unshardable — see LatencyModel::min_latency()).
  ShardGroup(std::size_t shards, SimTime lookahead);

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  std::size_t shards() const { return sims_.size(); }
  SimTime lookahead() const { return lookahead_; }
  Simulator& sim(std::size_t shard) { return *sims_[shard]; }

  /// Queues `fn` for execution at absolute time `t` on shard `dst`.
  /// Must be called from shard `src`'s lane (its simulator callbacks)
  /// during a window, or from the caller thread between runs. Requires
  /// t strictly beyond the current window end — automatic whenever t is
  /// a send time plus a latency >= the lookahead floor.
  void post(std::size_t src, std::size_t dst, SimTime t,
            Simulator::Action fn) {
    assert(t > window_end_ && "cross-shard arrival inside current window");
    out_[src * sims_.size() + dst].items.push_back(
        Pending{t, std::move(fn)});
  }

  /// Invoked at every barrier (caller thread, before outbox injection).
  /// Higher layers that keep their own cross-shard queues (the sharded
  /// async stack's datagram cells) drain them here.
  void set_barrier_hook(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  /// Runs windows on `team` until every shard's queue and every outbox
  /// is empty. Returns events executed. Throws std::invalid_argument,
  /// before any window, unless team.size() equals shards().
  std::uint64_t run_until_quiet(runtime::ShardTeam& team);

  /// Runs windows until no pending event is <= t_end, then advances
  /// every shard's clock to t_end (mirrors Simulator::run_until).
  /// Returns events executed. Rejects a team as run_until_quiet does.
  std::uint64_t run_until(runtime::ShardTeam& team, SimTime t_end);

  /// Sum of events executed across shards since construction.
  std::uint64_t events_executed() const;

 private:
  struct Pending {
    SimTime time;
    Simulator::Action fn;
  };
  // One cache line per cell so concurrent single-writer appends from
  // different lanes never share a line.
  struct alignas(64) Outbox {
    std::vector<Pending> items;
  };

  /// Throws std::invalid_argument unless team.size() == shards().
  void check_team(const runtime::ShardTeam& team) const;

  /// Drains every outbox into its destination simulator in canonical
  /// order. Caller thread only.
  void inject_outboxes();

  /// One barrier + window step. Returns false when quiet (nothing left
  /// <= horizon). `horizon` caps the window end.
  bool step_window(runtime::ShardTeam& team, SimTime horizon,
                   std::uint64_t& executed);

  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<Outbox> out_;  // S*S cells, cell(src, dst) = out_[src*S+dst]
  std::function<void()> barrier_hook_;
  SimTime window_end_;  // end of the last window run (monotonic)
  // Per-lane event counts for the current window, collected under the
  // team barrier (one line per lane to avoid false sharing).
  struct alignas(64) LaneCount {
    std::uint64_t n = 0;
  };
  std::vector<LaneCount> counts_;
};

}  // namespace cam
