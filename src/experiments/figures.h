// Per-figure experiment harnesses reproducing Section 6 of the paper.
// Each figureN() computes the figure's data series; the bench binary of
// the same name prints them. FigureScale lets tests run the same code at
// reduced size.
//
// Paper defaults: identifier space 2^19, group size 100,000, capacities
// U[4..10], upload bandwidth U[400,1000] kbps, c_x = floor(B_x / p).
// With the default bandwidth range, p = 100 reproduces exactly the
// default capacity range [4..10].
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/runner.h"
#include "strategy/strategy.h"

namespace cam::exp {

struct FigureScale {
  std::size_t n = 100'000;
  int ring_bits = 19;
  std::size_t sources = 3;  // multicast trees averaged per data point
  std::uint64_t seed = 7;
  /// Sweep parallelism: each figure data point is an independent cell
  /// of runtime::map_ordered(); the row order (and every byte of the
  /// output) is identical for any jobs value. 0 = hardware concurrency.
  std::size_t jobs = 1;
};

/// Parses "--n=", "--sources=", "--seed=", "--bits=", "--jobs="
/// overrides (for the bench binaries) through the shared
/// runtime::FlagSet table. Unknown flags, --n=0 and a --bits outside
/// RingSpace's range exit 2 with a usage message.
FigureScale parse_scale(int argc, char** argv, FigureScale defaults = {});

// --- Figure 6: throughput vs. average number of children per non-leaf ---
// The paper equates the x-axis with the average node capacity ("different
// average node capacity, which means different average number of children
// per non-leaf node"), so avg_degree — mean provisioned links per node —
// is the plotted abscissa; avg_children reports the per-tree realized
// fanout for reference. Throughput follows the per-link provisioning
// model (see multicast/metrics.h).
struct Fig6Row {
  std::string strategy;    // registry key ("camchord", ...)
  double param = 0;        // p (CAMs) or base/degree (baselines)
  double avg_degree = 0;   // x-axis
  double avg_children = 0; // realized children per non-leaf (reference)
  double throughput_kbps = 0;
};
std::vector<Fig6Row> figure6(const FigureScale& scale);

// --- Figure 7: throughput improvement ratio vs. bandwidth range --------
struct Fig7Row {
  double bw_hi = 0;          // upper bound b of [400, b] kbps
  double ratio_chord = 0;    // CAM-Chord / Chord
  double ratio_koorde = 0;   // CAM-Koorde / Koorde
  double predicted = 0;      // (a + b) / 2a
};
std::vector<Fig7Row> figure7(const FigureScale& scale);

// --- Figure 8: throughput vs. average path length (tradeoff) -----------
struct Fig8Row {
  std::string strategy;      // registry key
  double per_link_kbps = 0;  // p
  double throughput_kbps = 0;
  double avg_path = 0;
};
std::vector<Fig8Row> figure8(const FigureScale& scale);

// --- Figures 9 & 10: path-length distribution per capacity range -------
struct PathDistRow {
  std::uint32_t cap_lo = 0, cap_hi = 0;
  std::vector<std::uint64_t> histogram;  // nodes first reached per hop,
                                         // summed over sources
  double avg_path = 0;
};
std::vector<PathDistRow> figure9(const FigureScale& scale);   // CAM-Chord
std::vector<PathDistRow> figure10(const FigureScale& scale);  // CAM-Koorde

// --- Figure 11: average path length vs. average node capacity ----------
struct Fig11Row {
  double avg_capacity = 0;
  double camchord_path = 0;
  double camkoorde_path = 0;
  double bound = 0;  // 1.5 * ln n / ln c, the paper's reference curve
};
std::vector<Fig11Row> figure11(const FigureScale& scale);

}  // namespace cam::exp
