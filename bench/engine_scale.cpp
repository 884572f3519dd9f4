// engine_scale — the sharded-engine scale probe.
//
// Sweeps oracle-mode multicast over a grid of population sizes and
// shard counts (default n in {20k, 200k, 1M}, shards in {1, 4, hw}),
// reusing one frozen population + overlay per n so build cost stays out
// of the measured cells. Each cell times a burst of sharded multicasts
// through ShardGroup's conservative windows and reports events
// executed, wall ns, events/sec, allocations/event, and the peak RSS
// observed once that population was live.
//
// Two gates ride on the output (checked by scripts/bench.sh):
//   * equivalence_ok — within each n, the delivered-tree signature is
//     identical across every shard count. The latency model is uniform
//     (tie-free), so any divergence is an engine bug, not a tie.
//   * the 1M-node cell completing at all, with peak RSS recorded,
//     is the "million-node single run fits in RAM" acceptance probe.
//
// Every list entry must be a plain decimal number within its bound; an
// empty entry, a non-number, n = 0 or a value past kMaxN / kMaxShards
// exits 2 with usage before any population is built or thread started,
// and so does a --sources outside [1, kMaxSources]: a cell with no
// multicast has signature 0 at every shard count, so the equivalence
// gate would pass on no work.
//
// Unlike engine_sweep's serial probe, the allocation counters here are
// relaxed atomics: sharded cells allocate from worker threads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "camchord/net.h"
#include "camkoorde/net.h"
#include "fixture.h"
#include "overlay/sharded_cast.h"
#include "runtime/flags.h"
#include "runtime/shard_team.h"
#include "util/num_text.h"
#include "util/rng.h"

// ---------------------------------------------------------------------
// Global allocation probe, thread-safe flavour: worker lanes allocate
// concurrently, so the counters are relaxed atomics (ordering is
// irrelevant — phases read them only at quiescent points).
// ---------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cam;

struct Cell {
  std::size_t n = 0;
  std::uint32_t shards = 0;
  std::uint64_t events = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t signature = 0;  // delivered tree of the first source
  std::uint64_t peak_rss_bytes = 0;

  double events_per_sec() const {
    return wall_ns == 0 ? 0 : static_cast<double>(events) * 1e9 /
                                  static_cast<double>(wall_ns);
  }
  double allocs_per_event() const {
    return events == 0 ? 0 : static_cast<double>(allocs) /
                                 static_cast<double>(events);
  }
};

std::uint64_t peak_rss_bytes() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024ULL;
}

/// Largest population. The 1M-node cell peaks at about 1.1 GB of RSS,
/// so a run at this bound needs about 11 GB.
constexpr std::uint64_t kMaxN = 10'000'000;
/// Largest shard count: a cell starts one ShardTeam thread per shard
/// past the first.
constexpr std::uint64_t kMaxShards = 64;
/// Most multicasts per cell. Each one is a full sharded cast over the
/// population: about 2.5 s at n = 1M on one core (BENCH_PR10.json).
constexpr std::size_t kMaxSources = 1000;

/// Parses the comma list `csv` of flag `name` into `out`. Every entry
/// must be a decimal integer in [lo, hi]; an empty entry is an error.
bool parse_list(const char* name, const std::string& csv, std::uint64_t lo,
                std::uint64_t hi, std::vector<std::uint64_t>* out,
                std::string* error) {
  std::size_t pos = 0;
  for (;;) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string entry = csv.substr(pos, comma - pos);
    std::uint64_t v = 0;
    if (!parse_unsigned(entry, v) || v < lo || v > hi) {
      *error = std::string("--") + name + ": entry '" + entry +
               "' is not an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]";
      return false;
    }
    out->push_back(v);
    if (comma == csv.size()) return true;
    pos = comma + 1;
  }
}

Cell run_cell(const camchord::CamChordNet& overlay, const LatencyModel& lat,
              const std::vector<Id>& sources, std::size_t n,
              std::uint32_t shards, int ring_bits) {
  Cell cell;
  cell.n = n;
  cell.shards = shards;
  ShardMap map{static_cast<std::uint32_t>(ring_bits), shards};
  runtime::ShardTeam team(shards);

  const std::uint64_t al0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < sources.size(); ++s) {
    ShardedCastResult r =
        sharded_multicast(overlay, lat, sources[s], map, team);
    if (r.tree.size() == 0) std::abort();  // keep the work observable
    cell.events += r.events;
    if (s == 0) cell.signature = r.tree.delivery_signature();
  }
  const auto t1 = std::chrono::steady_clock::now();
  cell.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  cell.allocs = g_allocs.load(std::memory_order_relaxed) - al0;
  cell.peak_rss_bytes = peak_rss_bytes();
  return cell;
}

void print_cell(const Cell& c, bool last) {
  std::printf(
      "    {\"n\": %zu, \"shards\": %u, \"events\": %llu, "
      "\"wall_ns\": %llu, \"events_per_sec\": %.0f, "
      "\"allocs_per_event\": %.3f, \"signature\": \"%016llx\", "
      "\"peak_rss_bytes\": %llu}%s\n",
      c.n, c.shards, static_cast<unsigned long long>(c.events),
      static_cast<unsigned long long>(c.wall_ns), c.events_per_sec(),
      c.allocs_per_event(), static_cast<unsigned long long>(c.signature),
      static_cast<unsigned long long>(c.peak_rss_bytes), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::string n_csv = "20000,200000,1000000";
  std::string shard_csv = "1,4,0";  // 0 = hardware concurrency
  std::size_t sources = 2;
  std::uint64_t seed = 1;

  runtime::FlagSet flags;
  flags.add("n-list",
            "comma list of population sizes, each in [1, " +
                std::to_string(kMaxN) + "]",
            &n_csv);
  flags.add("shard-list",
            "comma list of shard counts, each in [0, " +
                std::to_string(kMaxShards) + "] (0 = hw cores)",
            &shard_csv);
  flags.add("sources",
            "multicasts per cell, in [1, " + std::to_string(kMaxSources) +
                "]",
            &sources, std::size_t{1}, kMaxSources);
  flags.add("seed", "master seed", &seed);
  std::string error;
  std::vector<std::uint64_t> n_list;
  std::vector<std::uint64_t> shard_list;
  if (!flags.parse(argc, argv, 1, &error) ||
      !parse_list("n-list", n_csv, 1, kMaxN, &n_list, &error) ||
      !parse_list("shard-list", shard_csv, 0, kMaxShards, &shard_list,
                  &error)) {
    std::fprintf(stderr, "engine_scale: %s\nflags:\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint32_t> shard_counts;
  for (std::uint64_t s : shard_list) {
    auto v = static_cast<std::uint32_t>(s == 0 ? hw : s);
    if (std::find(shard_counts.begin(), shard_counts.end(), v) ==
        shard_counts.end()) {
      shard_counts.push_back(v);
    }
  }

  std::vector<Cell> cells;
  bool equivalence_ok = true;
  for (std::uint64_t n64 : n_list) {
    const auto n = static_cast<std::size_t>(n64);
    const FrozenDirectory& dir = benchfix::paper_directory(n);
    const int bits = dir.ring().bits();
    UniformLatency lat(2.0, 9.0, seed ^ 0xca5c);

    // One overlay per n, shared read-only by every shard-count cell.
    Simulator build_sim;
    Network build_net(build_sim, lat);
    camchord::CamChordNet overlay(dir.ring(), build_net);
    overlay.bootstrap(dir.ids()[0], dir.info_at(0));
    for (std::size_t i = 1; i < dir.size(); ++i) {
      overlay.join(dir.ids()[i], dir.info_at(i), dir.ids()[i - 1]);
    }
    overlay.oracle_fill();

    Rng rng(seed ^ n64);
    std::vector<Id> srcs;
    for (std::size_t s = 0; s < sources; ++s) {
      srcs.push_back(dir.ids()[rng.next_below(dir.size())]);
    }

    std::uint64_t first_sig = 0;
    for (std::size_t k = 0; k < shard_counts.size(); ++k) {
      cells.push_back(run_cell(overlay, lat, srcs, n, shard_counts[k], bits));
      if (k == 0) {
        first_sig = cells.back().signature;
      } else if (cells.back().signature != first_sig) {
        equivalence_ok = false;
      }
    }
  }

  std::printf("{\n");
  std::printf(
      "  \"config\": {\"n_list\": \"%s\", \"shard_list\": \"%s\", "
      "\"sources\": %zu, \"seed\": %llu, \"hw_cores\": %u},\n",
      n_csv.c_str(), shard_csv.c_str(), sources,
      static_cast<unsigned long long>(seed), hw);
  std::printf("  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    print_cell(cells[i], i + 1 == cells.size());
  }
  std::printf("  ],\n");
  std::printf("  \"equivalence_ok\": %s,\n", equivalence_ok ? "true" : "false");
  std::printf("  \"peak_rss_bytes\": %llu\n",
              static_cast<unsigned long long>(peak_rss_bytes()));
  std::printf("}\n");
  return 0;
}
