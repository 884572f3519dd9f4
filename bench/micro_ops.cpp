// Micro-benchmarks (google-benchmark) of the hot routines: neighbor
// arithmetic, child selection, directory resolution, lookups, a full
// multicast tree build at moderate scale, the event engine's
// schedule/drain loop, and the flat hash tables against their std
// counterparts.
#include <benchmark/benchmark.h>

#include <functional>
#include <unordered_map>

#include "camchord/neighbor_math.h"
#include "camchord/oracle.h"
#include "camkoorde/neighbor_math.h"
#include "camkoorde/oracle.h"
#include "fixture.h"
#include "sim/simulator.h"
#include "util/flat_table.h"
#include "util/rng.h"
#include "workload/population.h"

namespace {

using namespace cam;

const FrozenDirectory& test_dir() { return benchfix::paper_directory(20000); }

void BM_LevelSeq(benchmark::State& state) {
  RingSpace ring(19);
  Rng rng(1);
  std::uint64_t d = 1 + rng.next_below(ring.size() - 1);
  for (auto _ : state) {
    auto ls = camchord::level_seq(ring, 7, 0, d);
    benchmark::DoNotOptimize(ls);
    d = (d * 2862933555777941757ULL + 3037000493ULL) & (ring.size() - 1);
    if (d == 0) d = 1;
  }
}
BENCHMARK(BM_LevelSeq);

void BM_SelectChildren(benchmark::State& state) {
  RingSpace ring(19);
  auto c = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto kids = camchord::select_children(ring, c, 12345, 12344);
    benchmark::DoNotOptimize(kids);
  }
}
BENCHMARK(BM_SelectChildren)->Arg(4)->Arg(16)->Arg(64);

void BM_NeighborIdentifiers(benchmark::State& state) {
  RingSpace ring(19);
  auto c = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto ids = camchord::neighbor_identifiers(ring, c, 777);
    benchmark::DoNotOptimize(ids);
  }
}
BENCHMARK(BM_NeighborIdentifiers)->Arg(4)->Arg(16)->Arg(64);

void BM_KoordeShiftIdentifiers(benchmark::State& state) {
  RingSpace ring(19);
  auto c = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto ids = camkoorde::shift_identifiers(ring, c, 777);
    benchmark::DoNotOptimize(ids);
  }
}
BENCHMARK(BM_KoordeShiftIdentifiers)->Arg(4)->Arg(16)->Arg(64);

void BM_DirectoryResponsible(benchmark::State& state) {
  const FrozenDirectory& dir = test_dir();
  Rng rng(2);
  for (auto _ : state) {
    auto r = dir.responsible(rng.next_below(dir.ring().size()));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DirectoryResponsible);

void BM_CamChordLookup(benchmark::State& state) {
  const FrozenDirectory& dir = test_dir();
  auto cap = [&](Id x) { return dir.info(x).capacity; };
  Rng rng(3);
  for (auto _ : state) {
    Id from = dir.ids()[rng.next_below(dir.size())];
    Id k = rng.next_below(dir.ring().size());
    auto r = camchord::lookup(dir.ring(), dir, cap, from, k);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CamChordLookup);

void BM_CamKoordeLookup(benchmark::State& state) {
  const FrozenDirectory& dir = test_dir();
  auto cap = [&](Id x) { return dir.info(x).capacity; };
  Rng rng(4);
  for (auto _ : state) {
    Id from = dir.ids()[rng.next_below(dir.size())];
    Id k = rng.next_below(dir.ring().size());
    auto r = camkoorde::lookup(dir.ring(), dir, cap, from, k);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CamKoordeLookup);

void BM_CamChordMulticastTree(benchmark::State& state) {
  const FrozenDirectory& dir = test_dir();
  auto cap = [&](Id x) { return dir.info(x).capacity; };
  for (auto _ : state) {
    auto tree = camchord::multicast(dir.ring(), dir, cap, dir.ids()[0]);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dir.size()));
}
BENCHMARK(BM_CamChordMulticastTree)->Unit(benchmark::kMillisecond);

void BM_CamKoordeMulticastTree(benchmark::State& state) {
  const FrozenDirectory& dir = test_dir();
  auto cap = [&](Id x) { return dir.info(x).capacity; };
  for (auto _ : state) {
    auto tree = camkoorde::multicast(dir.ring(), dir, cap, dir.ids()[0]);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dir.size()));
}
BENCHMARK(BM_CamKoordeMulticastTree)->Unit(benchmark::kMillisecond);

// ---- Event engine ----

// Pure schedule+drain throughput: bulk-load events across many ticks,
// then run them all. Measures placement, slot load/sort, and in-place
// execution with a trivially small action.
void BM_SimScheduleDrain(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    Simulator sim;
    Rng rng(9);
    for (std::uint64_t i = 0; i < n; ++i) {
      sim.at(static_cast<double>(rng.next_below(60'000)) +
                 0.25 * static_cast<double>(i % 4),
             [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimScheduleDrain)->Arg(100'000)->Unit(benchmark::kMillisecond);

// Self-rescheduling timer churn: the protocol-timer shape (stabilize,
// RPC timeout, retransmit). Steady-state per-event cost of the wheel.
void BM_SimTimerChurn(benchmark::State& state) {
  Simulator sim;
  std::uint64_t fired = 0;
  struct Timer {
    Simulator* sim;
    std::uint64_t state;
    std::uint64_t* fired;
    void operator()() {
      ++*fired;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      sim->after(0.25 + static_cast<double>(state >> 58),
                 Timer{sim, state, fired});
    }
  };
  for (int i = 0; i < 64; ++i) {
    sim.after(0.5 + i * 0.125, Timer{&sim, 0x9E3779B97F4A7C15ULL * (i + 1),
                                     &fired});
  }
  sim.run(100'000);  // warm the wheel
  for (auto _ : state) {
    sim.run(1);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimTimerChurn);

// ---- Flat tables vs std ----

template <typename Map>
void table_churn(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Map m;
  Rng rng(11);
  // Pre-populate half, then run an insert/lookup/erase mix over a keyspace
  // 2x the resident size (the RPC-pending / seen-stream shape).
  for (std::uint64_t i = 0; i < n / 2; ++i) m[rng.next_below(n)] = i;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const std::uint64_t key = rng.next_below(n);
    switch (rng.next_below(4)) {
      case 0:
        m[key] = key;
        break;
      case 1:
        sink += m.erase(key);
        break;
      default: {
        auto it = m.find(key);
        if (it != m.end()) sink += it->second;
        break;
      }
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}

void BM_FlatMapChurn(benchmark::State& state) {
  table_churn<FlatMap<std::uint64_t, std::uint64_t>>(state);
}
void BM_UnorderedMapChurn(benchmark::State& state) {
  table_churn<std::unordered_map<std::uint64_t, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapChurn)->Arg(64)->Arg(4096)->Arg(262144);
BENCHMARK(BM_UnorderedMapChurn)->Arg(64)->Arg(4096)->Arg(262144);

template <typename Map>
void table_iterate(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Map m;
  Rng rng(13);
  for (std::uint64_t i = 0; i < n; ++i) m[rng.next()] = i;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (const auto& [k, v] : m) sink += v;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_FlatMapIterate(benchmark::State& state) {
  table_iterate<FlatMap<std::uint64_t, std::uint64_t>>(state);
}
void BM_UnorderedMapIterate(benchmark::State& state) {
  table_iterate<std::unordered_map<std::uint64_t, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapIterate)->Arg(4096);
BENCHMARK(BM_UnorderedMapIterate)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
