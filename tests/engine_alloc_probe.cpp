// Allocation-count probe for the event engine: proves the steady-state
// event loop performs ZERO heap allocations per event.
//
// A standalone binary (not part of cam_tests) because it replaces global
// operator new to count allocations. Two measured phases:
//
//   1. A saturated mix of the engine's hot shapes: self-rescheduling
//      timers with inline-sized captures landing in the current tick and
//      near-future wheel slots, plus same-tick fan-out.
//   2. The same timers plus bursts past the current chunk: every 1.5 s
//      one more timer schedules 5,000 one-shot events 1.5 s ahead, which
//      wait in the later-chunk heap and then fill one wheel slot.
//
// Each phase reserves room for its peak pending count and warms up
// first; its measured window must then allocate nothing: InlineAction
// keeps every capture inline, and every event takes a recycled slab entry
// whatever slot or heap it passes through.
//
// Exits 0 on success, 1 with a diagnostic on any allocation per event.
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/simulator.h"

namespace {
bool g_counting = false;
unsigned long long g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using cam::SimTime;
using cam::Simulator;

// One self-rescheduling "protocol timer": a capture comfortably inside
// InlineAction's inline buffer, rescheduling at a deterministic pseudo-
// random near-future offset (the retransmit/stabilize shape).
struct Timer {
  Simulator* sim;
  std::uint64_t state;
  std::uint64_t* fired;

  void operator()() {
    ++*fired;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // 0.25ms .. ~64ms ahead: exercises the current tick, nearby wheel
    // slots, and the move of the next chunk into the wheel.
    const SimTime dt = 0.25 + static_cast<double>(state >> 58);
    sim->after(dt, Timer{sim, state, fired});
  }
};

constexpr int kBurst = 5'000;
constexpr SimTime kBurstPeriod = 1'500.0;  // ms; always past the chunk

// The burst source: schedules kBurst one-shot events for one instant
// kBurstPeriod ahead, then itself again at that instant.
struct Burst {
  Simulator* sim;
  std::uint64_t* fired;

  void operator()() {
    for (int i = 0; i < kBurst; ++i) {
      sim->after(kBurstPeriod, [f = fired] { ++*f; });
    }
    sim->after(kBurstPeriod, Burst{sim, fired});
  }
};

// Runs `events` events with the counting operator new armed; returns 0,
// or 1 with a diagnostic when the window underran or allocated.
int measure(Simulator& sim, const char* phase, std::uint64_t events,
            const std::uint64_t& fired) {
  g_allocs = 0;
  g_counting = true;
  const std::uint64_t ran = sim.run(events);
  g_counting = false;

  if (ran != events) {
    std::fprintf(stderr, "%s: probe underran: %llu events\n", phase,
                 static_cast<unsigned long long>(ran));
    return 1;
  }
  if (g_allocs != 0) {
    std::fprintf(stderr,
                 "%s: steady-state event loop allocated: %llu allocations "
                 "over %llu events (%.4f/event) — engine hot path "
                 "regressed\n",
                 phase, g_allocs, static_cast<unsigned long long>(ran),
                 static_cast<double>(g_allocs) / static_cast<double>(ran));
    return 1;
  }
  std::printf("ok: %s: %llu events, 0 allocations (fired=%llu)\n", phase,
              static_cast<unsigned long long>(ran),
              static_cast<unsigned long long>(fired));
  return 0;
}

}  // namespace

int main() {
  Simulator sim;
  std::uint64_t fired = 0;

  constexpr int kTimers = 64;
  // Each timer has exactly one outstanding event, so at most kTimers are
  // pending and a tick starts with at most kTimers events; timers
  // re-firing within the same tick append a few more. 4x slack bounds
  // that: with this reservation the loop must be *exactly*
  // allocation-free, not just amortized-free.
  sim.reserve(4 * kTimers);
  for (int i = 0; i < kTimers; ++i) {
    sim.after(0.5 + i * 0.125,
              Timer{&sim, 0x9E3779B97F4A7C15ULL * (i + 1), &fired});
  }

  // Warm-up: let the wheel cursor and the chunk moves run before the
  // measured window opens.
  sim.run(200'000);
  if (measure(sim, "timers", 500'000, fired) != 0) return 1;

  // Bursts: at most one burst, the timers and the burst source are
  // pending at once, and a burst's tick runs the burst, the source and
  // the timers that fire in it.
  sim.reserve(kBurst + 4 * kTimers);
  sim.after(kBurstPeriod, Burst{&sim, &fired});
  // Warm-up: three bursts pass through the heap and a wheel slot.
  sim.run_until(sim.now() + 4 * kBurstPeriod);
  // 19 bursts, each with its 1.5 s of timer events.
  return measure(sim, "bursts", 150'000, fired);
}
