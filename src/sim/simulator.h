// Discrete-event simulator core.
//
// The paper's evaluation is simulation-only; this is the event engine the
// protocol-mode overlays run on. Events are (time, sequence, action)
// tuples; ties on time break by insertion order so runs are fully
// deterministic.
//
// Engine layout (the PR5 hot-path overhaul):
//
//   * Actions are InlineAction (sim/inline_action.h): capture storage is
//     inline in the event, so scheduling does not heap-allocate.
//   * Events live in a two-level timer wheel with 1 ms ticks. Level 0 is
//     kL0Slots one-tick slots covering the current ~1 s chunk; level 1 is
//     kL1Slots one-chunk slots covering the current ~8.7 min superchunk;
//     anything farther sits in a binary-heap overflow. Protocol timers
//     (RPC timeouts, stabilize/fix/ping ticks, retransmit backoffs — all
//     well under a minute) land in the wheels, where insertion is O(1)
//     instead of the old priority queue's O(log n).
//   * The slot owning the current tick runs in exact (time, seq) order:
//     a sorted array of handles built when the slot becomes current and
//     extended by arrivals that sort last, merged with a small heap of
//     the other same-tick arrivals. That preserves the
//     fractional-millisecond ordering and the insertion-order tie-break
//     byte for byte: execution order is identical to the old
//     global-priority-queue engine (tests/engine_golden_test.cpp pins
//     this against pre-swap goldens).
//
// Scheduling in the past is a protocol bug: at() asserts `t >= now()`.
// In builds with asserts disabled the event is clamped to now() (it runs
// after the events already scheduled for now(), in seq order) so a
// release binary degrades to a causally sane order instead of silently
// time-traveling; see tests/sim_test.cpp.
#pragma once

#include <cstdint>
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

  /// Pre-sizes every wheel slot plus the active/overflow heaps for
  /// `events_per_slot` resident events. Capacities only ever grow to
  /// their high-water mark, so a workload whose per-slot occupancy is
  /// bounded by `events_per_slot` runs with exactly zero steady-state
  /// allocations (tests/engine_alloc_probe.cpp); without the reservation
  /// the same loop is amortized-zero, with rare decaying growth as slots
  /// hit new occupancy maxima.
  void reserve(std::size_t events_per_slot);

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }
  std::uint64_t events_executed() const { return executed_; }

  /// Exact time of the earliest pending event; requires !empty(). Pure
  /// cursor motion (may cascade wheel levels) — never executes anything.
  /// The sharded engine uses it to size conservative time windows.
  SimTime peek_next_time();

 private:
  // Wheel geometry: 1 ms ticks, 1024-tick chunks (level 0), 512-chunk
  // superchunks (level 1). All three constants are powers of two so the
  // tick→slot maps are single AND instructions.
  static constexpr std::uint64_t kL0Bits = 10;  // 1024 slots ≈ 1 s
  static constexpr std::uint64_t kL1Bits = 9;   // 512 slots ≈ 8.7 min
  static constexpr std::uint64_t kL0Slots = 1ULL << kL0Bits;
  static constexpr std::uint64_t kL1Slots = 1ULL << kL1Bits;
  static constexpr std::uint64_t kL0Mask = kL0Slots - 1;
  static constexpr std::uint64_t kL1Mask = kL1Slots - 1;

  struct Event {
    SimTime time;
    std::uint64_t seq;
    Action fn;
  };
  /// Execution-order handle: events stay put in their slot vector and
  /// are consumed through these 24-byte PODs, so ordering work (sort,
  /// heap sifts) never moves a 120-byte Event or calls its relocate.
  struct Order {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t idx;  // position in the current slot's vector
  };
  /// Min-heap order on exact (time, seq) — the engine's one total order.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
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
  std::uint64_t cur_chunk() const { return cur_tick_ >> kL0Bits; }
  std::uint64_t cur_super() const { return cur_tick_ >> (kL0Bits + kL1Bits); }

  /// A cleared slot keeps its capacity (steady-state recycling) unless it
  /// ballooned past this — l1 chunk-slots can transiently hold a whole
  /// second of events, and pinning that much capacity in every slot
  /// would leak RSS proportional to event density.
  static constexpr std::size_t kReleaseCapacity = 4096;

  /// Routes an event to the current slot, a wheel slot, or the overflow.
  void place(Event ev);
  /// Advances the wheel cursor (cascading L1→L0 and overflow→wheels)
  /// until the current slot holds the globally next event. Requires
  /// pending_ > 0. Pure cursor motion: never executes anything, so the
  /// peek in run_until() may call it safely.
  void ensure_current();
  /// Builds the sorted execution order for the freshly current slot.
  void load_order(const std::vector<Event>& slot);
  /// Clears the exhausted current slot and its order state.
  void finish_slot();
  /// Next (time, seq) handle from order_/late_; requires a current event.
  Order pop_order();
  /// Exact time of the next event; requires ensure_current() ran.
  SimTime next_time() const;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;

  std::uint64_t cur_tick_ = 0;  // tick whose slot is being executed
  // Execution state for the current slot l0_[cur_tick_ & kL0Mask]:
  // order_[head_..] is the sorted schedule built at slot load, extended
  // by later arrivals for tick <= cur_tick_ that sort after all of it;
  // late_ is a min-heap of the other such arrivals (sub-millisecond
  // self-scheduling, or events placed into a tick a peek made current).
  // Events execute in place.
  std::vector<Order> order_;
  std::size_t head_ = 0;
  std::vector<Order> late_;
  std::vector<std::vector<Event>> l0_;  // current chunk, tick > cur_tick_
  std::vector<std::vector<Event>> l1_;  // current super, chunk > cur_chunk
  std::size_t l0_count_ = 0;
  std::size_t l1_count_ = 0;
  std::vector<Event> overflow_;  // binary heap (Later), super > cur_super
};

}  // namespace cam
