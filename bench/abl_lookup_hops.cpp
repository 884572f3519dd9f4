// Ablation A1 — lookup hop counts vs. group size and capacity, checking
// Theorems 1-2 (CAM-Chord: O(log n / log c)) and the Koorde-style bound
// for CAM-Koorde. Prints measured mean/p99 hops next to log(n)/log(c).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/figures.h"
#include "experiments/table.h"
#include "runtime/sweep_pool.h"
#include "util/rng.h"
#include "fixture.h"
#include "workload/population.h"

int main(int argc, char** argv) {
  using namespace cam;
  using namespace cam::exp;
  FigureScale scale = parse_scale(argc, argv);

  std::cout << "# Ablation A1: lookup hops vs n and capacity "
               "(500 lookups per cell)\n";
  Table t({"system", "n", "capacity", "mean_hops", "p99_hops",
           "ln(n)/ln(c)"});

  // Declarative (n × capacity) grid; each cell builds its own population
  // and runs both systems' lookups, so the ShardTeam lanes of
  // runtime::for_each_cell can overlap the expensive large-n cells. Rows
  // land in grid order for any --jobs.
  struct Cell {
    std::size_t n;
    std::uint32_t c;
  };
  std::vector<Cell> grid;
  for (std::size_t n : {std::size_t{1000}, std::size_t{10000}, scale.n}) {
    for (std::uint32_t c : {4u, 8u, 16u, 32u}) grid.push_back({n, c});
  }
  auto chunks = cam::runtime::map_ordered(
      grid.size(), scale.jobs, [&](std::size_t gi) {
        const auto [n, c] = grid[gi];
        workload::PopulationSpec spec;
        spec.n = n;
        spec.ring_bits = scale.ring_bits;
        spec.seed = scale.seed;
        const FrozenDirectory& dir =
            benchfix::shared_constant_directory(spec, c);
        std::vector<std::vector<std::string>> rows;
        for (const char* key : {"camchord", "camkoorde"}) {
          const auto& strat = strategy::registry().make(key);
          Rng rng(scale.seed ^ 0xABCD);
          std::vector<std::size_t> hops;
          hops.reserve(500);
          for (int i = 0; i < 500; ++i) {
            Id from = dir.ids()[rng.next_below(dir.size())];
            Id k = rng.next_below(dir.ring().size());
            LookupResult r = strat.lookup(dir, from, k, {});
            if (r.ok) hops.push_back(r.hops());
          }
          std::sort(hops.begin(), hops.end());
          double mean = 0;
          for (auto h : hops) mean += static_cast<double>(h);
          mean /= static_cast<double>(hops.size());
          std::size_t p99 = hops[hops.size() * 99 / 100];
          rows.push_back(
              {std::string(strat.display_name()), std::to_string(n),
               std::to_string(c),
               fmt(mean, 2), std::to_string(p99),
               fmt(std::log(static_cast<double>(n)) / std::log(c), 2)});
        }
        return rows;
      });
  for (auto& chunk : chunks) {
    for (auto& row : chunk) t.add_row(std::move(row));
  }
  t.print(std::cout);
  return 0;
}
