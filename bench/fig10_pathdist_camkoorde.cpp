// Figure 10 — "Path length distribution in CAM-Koorde": as Figure 9 but
// for the flooding system (legend omits [4..60]).
//
// Paper shape: same single-peaked left-shifting family; peaks sit a
// little right of CAM-Chord's at small capacities (flooding loses some
// fanout to the duplicate check) and match or beat it at large ones.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/figures.h"
#include "experiments/table.h"

int main(int argc, char** argv) {
  using namespace cam::exp;
  FigureScale scale = parse_scale(argc, argv);
  std::cout << "# Figure 10: path length distribution, CAM-Koorde (n="
            << scale.n << ", histogram summed over " << scale.sources
            << " sources)\n";
  auto rows = figure10(scale);
  std::size_t max_hops = 0;
  for (const auto& r : rows) max_hops = std::max(max_hops, r.histogram.size());
  std::vector<std::string> header{"capacity", "avg_path"};
  for (std::size_t h = 0; h < max_hops; ++h) {
    std::string label = "h";
    label += std::to_string(h);
    header.push_back(label);
  }
  Table t(header);
  for (const auto& r : rows) {
    std::string range = "[";
    range += std::to_string(r.cap_lo) + ".." + std::to_string(r.cap_hi) + "]";
    std::vector<std::string> row{range, fmt(r.avg_path, 2)};
    for (std::size_t h = 0; h < max_hops; ++h) {
      row.push_back(h < r.histogram.size() ? std::to_string(r.histogram[h])
                                           : "0");
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  return 0;
}
