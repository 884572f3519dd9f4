// Discrete-event simulator core.
//
// The paper's evaluation is simulation-only; this is the event engine the
// protocol-mode overlays run on. Events are (time, sequence, action)
// tuples; ties on time break by insertion order so runs are fully
// deterministic.
//
// Engine layout:
//
//   * Actions are InlineAction (sim/inline_action.h): capture storage is
//     inline in the event, so scheduling does not heap-allocate.
//   * Every pending event lives in one slab of fixed kBlockEvents-event
//     blocks, recycled through an intrusive free list (the PacketPool
//     idiom), so the engine's memory follows the number of pending
//     events, not simulated time. Blocks are only ever added, so an
//     event never moves after it is placed.
//   * A one-level timer wheel of kWheelSlots 1 ms slots covers the
//     current ~1 s chunk; each slot is a list threaded through the slab.
//     Protocol timers (RPC timeouts, stabilize/fix/ping ticks, link
//     latencies) mostly land there, where insertion is O(1). Events in
//     later chunks wait in one binary heap of 24-byte (time, seq, slot)
//     handles; when the cursor reaches their chunk, the whole chunk
//     moves into the wheel.
//   * The current tick runs in exact (time, seq) order: a sorted array of
//     handles built when the tick becomes current and extended by
//     arrivals that sort last, merged with a small heap of the other
//     same-tick arrivals. That preserves the fractional-millisecond
//     ordering and the insertion-order tie-break byte for byte:
//     execution order is identical to the old global-priority-queue
//     engine (tests/engine_golden_test.cpp pins this against pre-swap
//     goldens).
//
// Scheduling in the past is a protocol bug: at() asserts `t >= now()`.
// In builds with asserts disabled the event is clamped to now() (it runs
// after the events already scheduled for now(), in seq order) so a
// release binary degrades to a causally sane order instead of silently
// time-traveling; see tests/sim_test.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_action.h"

namespace cam {

/// Virtual time in milliseconds.
using SimTime = double;

/// Deterministic event-queue simulator.
class Simulator {
 public:
  using Action = InlineAction;

  Simulator();

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. Requires t >= now() (asserted);
  /// with asserts compiled out, a past `t` is clamped to now().
  void at(SimTime t, Action fn);

  /// Schedules `fn` at now() + dt (dt >= 0).
  void after(SimTime dt, Action fn) { at(now_ + dt, std::move(fn)); }

  /// Runs one event; returns false if the queue was empty.
  bool step();

  /// Runs until the queue drains or `max_events` have executed.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= t_end (events scheduled during execution
  /// included). Afterwards now() == t_end if the queue outlived it.
  std::uint64_t run_until(SimTime t_end);

  /// Makes room for `events` pending events: slab entries plus the
  /// handle arrays. Storage only grows to its high-water mark, so a
  /// workload that never has more than `events` pending (nor runs more
  /// than that many in one tick) runs with exactly zero steady-state
  /// allocations (tests/engine_alloc_probe.cpp); without the reservation
  /// the same loop is amortized-zero, growing only when the pending
  /// count reaches a new maximum.
  void reserve(std::size_t events);

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }
  std::uint64_t events_executed() const { return executed_; }

  /// Exact time of the earliest pending event; requires !empty(). Pure
  /// cursor motion (may move a chunk into the wheel) — never executes
  /// anything. The sharded engine uses it to size conservative time
  /// windows.
  SimTime peek_next_time();

 private:
  // Wheel geometry: 1 ms ticks, 1024-tick chunks; a power of two so the
  // tick→slot map is a single AND. Slab blocks hold 1024 events each, as
  // PacketPool's slabs hold 1024 packets.
  static constexpr std::uint64_t kWheelBits = 10;  // 1024 slots ≈ 1 s
  static constexpr std::uint64_t kWheelSlots = 1ULL << kWheelBits;
  static constexpr std::uint64_t kWheelMask = kWheelSlots - 1;
  static constexpr std::uint32_t kBlockBits = 10;
  static constexpr std::uint32_t kBlockEvents = 1u << kBlockBits;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;  // ends a list

  /// One slab entry. `next` links it into its wheel slot's list while it
  /// waits there, and into the free list once it has run.
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;
    Action fn;
  };
  /// Ordering handle: events stay put in the slab and are ordered through
  /// these 24-byte PODs, so sorts and heap sifts never move an action.
  struct Order {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t idx;  // slab entry
  };
  /// Min-heap order on exact (time, seq) — the engine's one total order.
  struct Later {
    bool operator()(const Order& a, const Order& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Earlier {
    bool operator()(const Order& a, const Order& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  static std::uint64_t tick_of(SimTime t) {
    return static_cast<std::uint64_t>(t);  // t >= 0; 1 ms ticks
  }
  std::uint64_t cur_chunk() const { return cur_tick_ >> kWheelBits; }
  Event& entry(std::uint32_t idx) {
    return blocks_[idx >> kBlockBits][idx & (kBlockEvents - 1)];
  }

  /// Adds one block to the slab and threads it onto the free list.
  void add_block();
  /// Pushes slab entry `idx` onto the list of the wheel slot of tick `tk`.
  void link(std::uint32_t idx, std::uint64_t tk);
  /// Advances the wheel cursor (moving the next chunk out of the later
  /// heap when the wheel is dry) until order_/late_ hold the globally
  /// next event. Requires pending_ > 0. Pure cursor motion: never
  /// executes anything, so the peek in run_until() may call it safely.
  void ensure_current();
  /// Next (time, seq) handle from order_/late_; requires a current event.
  Order pop_order();
  /// Exact time of the next event; requires ensure_current() ran.
  SimTime next_time() const;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;

  std::vector<std::unique_ptr<Event[]>> blocks_;  // the slab
  std::uint32_t free_ = kNil;                     // free-list head

  std::uint64_t cur_tick_ = 0;  // tick being executed
  // Execution state for the current tick: order_[head_..] is the sorted
  // schedule built when the tick became current, extended by later
  // arrivals for tick <= cur_tick_ that sort after all of it; late_ is a
  // min-heap of the other such arrivals (sub-millisecond
  // self-scheduling, or events placed into a tick a peek made current).
  std::vector<Order> order_;
  std::size_t head_ = 0;
  std::vector<Order> late_;
  std::vector<std::uint32_t> wheel_;  // slot list heads; current chunk,
                                      // tick > cur_tick_
  std::size_t wheel_count_ = 0;
  std::vector<Order> later_;  // binary heap (Later), chunk > cur_chunk()
};

}  // namespace cam
