// Figure 9 — "Path length distribution in CAM-Chord": number of nodes
// first reached at each hop count, one series per capacity range
// (legend: 4, [4..6], [4..8], [4..10], [4..20], [4..40], [4..60],
// [4..100], [4..200]).
//
// Paper shape: single-peaked curves that shift left as the capacity
// range widens, with the improvement saturating past [4..10]; no long
// right tail.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/figures.h"
#include "experiments/table.h"

int main(int argc, char** argv) {
  using namespace cam::exp;
  FigureScale scale = parse_scale(argc, argv);
  std::cout << "# Figure 9: path length distribution, CAM-Chord (n="
            << scale.n << ", histogram summed over " << scale.sources
            << " sources)\n";
  auto rows = figure9(scale);
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
