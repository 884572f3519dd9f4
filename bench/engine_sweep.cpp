// engine_sweep — the tracked perf probe of the simulation hot path.
//
// Replays the ablation-A3 churn cell shape at bench scale (default
// n = 20'000, the paper's Section 6 ring) for both protocol systems:
// grow the overlay, oracle-converge, multicast from several sources,
// fail a fraction abruptly, multicast again over the stale tables —
// plus one asynchronous protocol segment (full timer/RPC stack) at
// moderate n. Every phase that drains the event engine is timed, and
// the probe reports events executed, wall ns, ns/event, events/sec,
// allocations/event, and peak RSS as one JSON object on stdout.
//
// scripts/bench.sh runs this binary and archives the numbers in
// BENCH_*.json so each PR has a perf trajectory; tier1.sh runs it in
// --smoke shape and fails CI on regression. The workload is
// deterministic in --seed: numbers move only when the code does.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "camchord/net.h"
#include "camkoorde/net.h"
#include "fixture.h"
#include "proto/async_camchord.h"
#include "proto/async_camkoorde.h"
#include "runtime/flags.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/population.h"

// ---------------------------------------------------------------------
// Global allocation probe: counts every operator new while enabled.
// Single-threaded by design (the probe measures the serial event loop).
// ---------------------------------------------------------------------
namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// False positive: the replaced operator new above takes its memory from malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace cam;

struct PhaseStats {
  std::uint64_t events = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t allocs = 0;

  void accumulate(const PhaseStats& o) {
    events += o.events;
    wall_ns += o.wall_ns;
    allocs += o.allocs;
  }
  double ns_per_event() const {
    return events == 0 ? 0 : static_cast<double>(wall_ns) /
                                 static_cast<double>(events);
  }
  double events_per_sec() const {
    return wall_ns == 0 ? 0 : static_cast<double>(events) * 1e9 /
                                  static_cast<double>(wall_ns);
  }
  double allocs_per_event() const {
    return events == 0 ? 0 : static_cast<double>(allocs) /
                                 static_cast<double>(events);
  }
};

/// Times `fn`, attributing simulator events executed while it ran.
template <typename Fn>
PhaseStats timed(Simulator& sim, Fn&& fn) {
  PhaseStats s;
  const std::uint64_t ev0 = sim.events_executed();
  const std::uint64_t al0 = g_allocs;
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  s.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  s.events = sim.events_executed() - ev0;
  s.allocs = g_allocs - al0;
  return s;
}

/// Oracle-mode churn cell (the A3 shape): build, converge via oracle,
/// multicast KxK sources around an abrupt failure wave.
template <typename Net>
PhaseStats oracle_cell(const FrozenDirectory& dir, std::size_t sources,
                       double fail_fraction, std::uint64_t seed) {
  Simulator sim;
  ConstantLatency lat(1.0);
  Network net(sim, lat);
  Net overlay(dir.ring(), net);
  Rng rng(seed);

  // Bulk build: joining in ascending id order via the previous member
  // makes every join's lookup a one-hop wrap resolution, so overlay
  // construction stays O(n) and out of the measured phases.
  overlay.bootstrap(dir.ids()[0], dir.info_at(0));
  for (std::size_t i = 1; i < dir.size(); ++i) {
    overlay.join(dir.ids()[i], dir.info_at(i), dir.ids()[i - 1]);
  }
  overlay.oracle_fill();

  PhaseStats total;
  auto members = overlay.members_sorted();
  total.accumulate(timed(sim, [&] {
    for (std::size_t s = 0; s < sources; ++s) {
      Id src = members[rng.next_below(members.size())];
      auto tree = overlay.multicast(src);
      if (tree.size() == 0) std::abort();  // keep the work observable
    }
  }));

  workload::fail_random_fraction(overlay, fail_fraction, rng);
  members = overlay.members_sorted();
  total.accumulate(timed(sim, [&] {
    for (std::size_t s = 0; s < sources; ++s) {
      Id src = members[rng.next_below(members.size())];
      auto tree = overlay.multicast(src);
      if (tree.size() == 0) std::abort();
    }
  }));
  return total;
}

/// Asynchronous protocol segment: full timer wheel + RPC + multicast
/// stack at moderate n — the event mix the chaos sweeps drain.
template <typename Net>
PhaseStats async_cell(std::size_t n, int bits, std::uint64_t seed,
                      SimTime run_ms) {
  RingSpace ring(bits);
  Simulator sim;
  UniformLatency lat(5, 25, seed ^ 0x5eed);
  Network net(sim, lat);
  proto::HostBus bus(net);
  proto::AsyncConfig cfg;
  Net overlay(ring, bus, cfg);
  Rng rng(seed);

  auto info = [&] {
    return NodeInfo{static_cast<std::uint32_t>(rng.uniform(4, 10)),
                    400 + rng.next_double() * 600};
  };
  overlay.bootstrap(rng.next_below(ring.size()), info());
  overlay.run_for(500);
  while (overlay.size() < n) {
    std::size_t batch = std::min<std::size_t>(8, n - overlay.size());
    auto members = overlay.members_sorted();
    for (std::size_t i = 0; i < batch; ++i) {
      Id id = rng.next_below(ring.size());
      if (overlay.known(id)) continue;
      overlay.spawn(id, info(), members[rng.next_below(members.size())]);
    }
    overlay.run_for(400);
  }

  PhaseStats total;
  total.accumulate(timed(sim, [&] { overlay.run_for(run_ms); }));
  total.accumulate(timed(sim, [&] {
    Id src = overlay.members_sorted()[rng.next_below(overlay.size())];
    auto tree = overlay.multicast(src);
    if (tree.size() == 0) std::abort();
  }));
  total.accumulate(timed(sim, [&] { overlay.run_for(run_ms); }));
  return total;
}

// Fixed CPU-bound reference loop, timed the same way as the phases. On
// a shared core every wall-clock number scales with how much of the
// core this process actually got; the calibration scales with it too,
// so ns_per_event / calib_ns_per_iter is a load-normalized unit that
// scripts/bench.sh --smoke can compare across differently-loaded runs.
double calibrate_ns_per_iter() {
  constexpr std::uint64_t kIters = 1u << 27;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Defeat closed-form recurrence folding; the loop must really run.
    asm volatile("" : "+r"(x));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         static_cast<double>(kIters);
}

void print_phase(const char* name, const PhaseStats& s, bool last = false) {
  std::printf(
      "    \"%s\": {\"events\": %llu, \"wall_ns\": %llu, "
      "\"ns_per_event\": %.2f, \"events_per_sec\": %.0f, "
      "\"allocs_per_event\": %.3f}%s\n",
      name, static_cast<unsigned long long>(s.events),
      static_cast<unsigned long long>(s.wall_ns), s.ns_per_event(),
      s.events_per_sec(), s.allocs_per_event(), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 20'000;
  int bits = 19;
  std::size_t async_n = 300;
  std::size_t sources = 8;
  double fail = 0.15;
  double async_run_ms = 60'000;
  std::uint64_t seed = 1;

  runtime::FlagSet flags;
  flags.add("n", "oracle-mode group size", &n, std::size_t{1});
  flags.add("bits", "ring identifier bits", &bits, RingSpace::kMinBits,
            RingSpace::kMaxBits);
  flags.add("async-n", "async protocol segment size", &async_n);
  flags.add("sources", "multicasts per phase", &sources);
  flags.add("fail", "abrupt failure fraction", &fail);
  flags.add("async-ms", "async segment virtual run time", &async_run_ms);
  flags.add("seed", "master seed", &seed);
  std::string error;
  if (!flags.parse(argc, argv, 1, &error)) {
    std::fprintf(stderr, "engine_sweep: %s\nflags:\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }

  workload::PopulationSpec spec;
  spec.n = n;
  spec.ring_bits = bits;
  spec.seed = 5;
  const FrozenDirectory& dir = benchfix::shared_directory(spec, 4, 10);

  double calib = calibrate_ns_per_iter();

  PhaseStats chord =
      oracle_cell<camchord::CamChordNet>(dir, sources, fail, seed);
  PhaseStats koorde =
      oracle_cell<camkoorde::CamKoordeNet>(dir, sources, fail, seed);
  PhaseStats async_chord = async_cell<proto::AsyncCamChordNet>(
      async_n, 16, seed, async_run_ms);
  PhaseStats async_koorde = async_cell<proto::AsyncCamKoordeNet>(
      async_n, 16, seed, async_run_ms);

  PhaseStats total;
  total.accumulate(chord);
  total.accumulate(koorde);
  total.accumulate(async_chord);
  total.accumulate(async_koorde);

  // Second calibration after the workload; keep the faster one (the
  // less-perturbed sample of the machine's true speed).
  calib = std::min(calib, calibrate_ns_per_iter());

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);

  std::printf("{\n");
  std::printf(
      "  \"config\": {\"n\": %zu, \"bits\": %d, \"async_n\": %zu, "
      "\"sources\": %zu, \"fail\": %.2f, \"async_ms\": %.0f, "
      "\"seed\": %llu},\n",
      n, bits, async_n, sources, fail, async_run_ms,
      static_cast<unsigned long long>(seed));
  std::printf("  \"phases\": {\n");
  print_phase("oracle_camchord", chord);
  print_phase("oracle_camkoorde", koorde);
  print_phase("async_camchord", async_chord);
  print_phase("async_camkoorde", async_koorde, true);
  std::printf("  },\n");
  std::printf(
      "  \"total\": {\"events\": %llu, \"wall_ns\": %llu, "
      "\"ns_per_event\": %.2f, \"events_per_sec\": %.0f, "
      "\"allocs_per_event\": %.3f},\n",
      static_cast<unsigned long long>(total.events),
      static_cast<unsigned long long>(total.wall_ns), total.ns_per_event(),
      total.events_per_sec(), total.allocs_per_event());
  std::printf("  \"calib_ns_per_iter\": %.4f,\n", calib);
  std::printf("  \"peak_rss_bytes\": %llu\n",
              static_cast<unsigned long long>(ru.ru_maxrss) * 1024ULL);
  std::printf("}\n");
  return 0;
}
