#include "experiments/figures.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ids/ring.h"
#include "runtime/flags.h"
#include "runtime/sweep_pool.h"
#include "workload/population.h"

namespace cam::exp {

namespace {

workload::PopulationSpec spec_of(const FigureScale& scale, double bw_lo = 400,
                                 double bw_hi = 1000) {
  workload::PopulationSpec spec;
  spec.n = scale.n;
  spec.ring_bits = scale.ring_bits;
  spec.bw_lo_kbps = bw_lo;
  spec.bw_hi_kbps = bw_hi;
  spec.seed = scale.seed;
  return spec;
}

}  // namespace

FigureScale parse_scale(int argc, char** argv, FigureScale defaults) {
  FigureScale s = defaults;
  runtime::FlagSet flags;
  flags.add("n", "group size", &s.n, std::size_t{1});
  flags.add("sources", "multicast trees per data point", &s.sources);
  flags.add("seed", "master seed", &s.seed);
  flags.add("bits", "ring identifier bits", &s.ring_bits, RingSpace::kMinBits,
            RingSpace::kMaxBits);
  flags.add("jobs", "parallel sweep cells (0 = hardware)", &s.jobs);
  std::string error;
  if (!flags.parse(argc, argv, 1, &error)) {
    std::fprintf(stderr, "%s: %s\nflags:\n%s", argv[0], error.c_str(),
                 flags.usage().c_str());
    std::exit(2);
  }
  return s;
}

std::vector<Fig6Row> figure6(const FigureScale& scale) {
  // Sweep the average number of children. For the CAMs this is driven by
  // the per-link parameter p (average capacity ~ E(B)/p = 700/p for the
  // default band); the baselines take the structural parameter directly.
  const std::vector<std::uint32_t> targets = {4, 6, 8, 10, 14, 20,
                                              28, 40, 55, 70};

  // One shared population for the capacity-unaware baselines (they ignore
  // node capacities; only ids and bandwidths matter). FrozenDirectory is
  // immutable, so the parallel cells below read it concurrently.
  FrozenDirectory base_pop =
      workload::uniform_capacity_population(spec_of(scale), 4, 10).freeze();

  // One sweep cell per fanout target; each builds its own CAM population.
  auto chunks = runtime::map_ordered(
      targets.size(), scale.jobs, [&](std::size_t ti) {
        const std::uint32_t c = targets[ti];
        double p = 700.0 / c;
        FrozenDirectory cam_pop =
            workload::bandwidth_derived_population(spec_of(scale), p, 4)
                .freeze();
        const auto& reg = strategy::registry();
        std::vector<Fig6Row> chunk;
        for (const char* key : {"camchord", "camkoorde"}) {
          AveragedRun r = run_sources(reg.make(key), cam_pop, scale.sources,
                                      scale.seed);
          chunk.push_back(Fig6Row{key, p, r.avg_degree, r.avg_children,
                                  r.provisioned_kbps});
        }
        strategy::StrategyParams params;
        params.uniform_degree = c;
        for (const char* key : {"chord", "koorde"}) {
          AveragedRun r = run_sources(reg.make(key), base_pop, scale.sources,
                                      scale.seed, params);
          chunk.push_back(Fig6Row{key, static_cast<double>(c), r.avg_degree,
                                  r.avg_children, r.provisioned_kbps});
        }
        return chunk;
      });

  std::vector<Fig6Row> rows;
  for (auto& chunk : chunks) {
    rows.insert(rows.end(), chunk.begin(), chunk.end());
  }
  return rows;
}

std::vector<Fig7Row> figure7(const FigureScale& scale) {
  // Fixed p = 100 (the paper's default: B in [400,1000] gives c in
  // [4..10]); widen the bandwidth range and compare CAM vs. uniform at
  // the same provisioned link budget: the baselines get the structural
  // parameter c = E(B)/p that the CAMs achieve on average.
  const double a = 400;
  const double p = 100;
  const std::vector<double> highs = {800.0, 1000.0, 1200.0, 1400.0, 1600.0};
  return runtime::map_ordered(highs.size(), scale.jobs, [&](std::size_t bi) {
    const double b = highs[bi];
    FrozenDirectory cam_pop =
        workload::bandwidth_derived_population(spec_of(scale, a, b), p, 4)
            .freeze();
    FrozenDirectory base_pop =
        workload::uniform_capacity_population(spec_of(scale, a, b), 4, 10)
            .freeze();
    auto c = static_cast<std::uint32_t>(std::lround((a + b) / 2 / p));

    const auto& reg = strategy::registry();
    AveragedRun cam_chord = run_sources(reg.make("camchord"), cam_pop,
                                        scale.sources, scale.seed);
    AveragedRun cam_koorde = run_sources(reg.make("camkoorde"), cam_pop,
                                         scale.sources, scale.seed);
    strategy::StrategyParams chord_p;
    chord_p.uniform_degree = c;
    AveragedRun chord = run_sources(reg.make("chord"), base_pop,
                                    scale.sources, scale.seed, chord_p);
    strategy::StrategyParams koorde_p;
    koorde_p.uniform_degree = std::max(c, 4u);
    AveragedRun koorde = run_sources(reg.make("koorde"), base_pop,
                                     scale.sources, scale.seed, koorde_p);

    Fig7Row row;
    row.bw_hi = b;
    row.ratio_chord = cam_chord.provisioned_kbps / chord.provisioned_kbps;
    row.ratio_koorde = cam_koorde.provisioned_kbps / koorde.provisioned_kbps;
    row.predicted = (a + b) / (2 * a);
    return row;
  });
}

std::vector<Fig8Row> figure8(const FigureScale& scale) {
  // Sweep p: larger p => fewer children per node => higher throughput but
  // deeper trees. Throughput ~ p, so this traces the tradeoff curve.
  const std::vector<double> ps = {10.0, 15.0, 20.0, 30.0,
                                  46.0, 60.0, 80.0, 100.0};
  auto chunks = runtime::map_ordered(
      ps.size(), scale.jobs, [&](std::size_t pi) {
        const double p = ps[pi];
        FrozenDirectory pop =
            workload::bandwidth_derived_population(spec_of(scale), p, 4)
                .freeze();
        std::vector<Fig8Row> chunk;
        for (const char* key : {"camchord", "camkoorde"}) {
          AveragedRun r = run_sources(strategy::registry().make(key), pop,
                                      scale.sources, scale.seed);
          chunk.push_back(Fig8Row{key, p, r.provisioned_kbps, r.avg_path});
        }
        return chunk;
      });
  std::vector<Fig8Row> rows;
  for (auto& chunk : chunks) {
    rows.insert(rows.end(), chunk.begin(), chunk.end());
  }
  return rows;
}

namespace {

std::vector<PathDistRow> path_distribution(
    const strategy::MulticastStrategy& strat, const FigureScale& scale,
    const std::vector<std::uint32_t>& cap_highs) {
  return runtime::map_ordered(
      cap_highs.size(), scale.jobs, [&](std::size_t i) {
        const std::uint32_t hi = cap_highs[i];
        FrozenDirectory pop =
            workload::uniform_capacity_population(spec_of(scale), 4, hi)
                .freeze();
        AveragedRun r = run_sources(strat, pop, scale.sources, scale.seed);
        PathDistRow row;
        row.cap_lo = 4;
        row.cap_hi = hi;
        row.histogram = r.depth_histogram;
        row.avg_path = r.avg_path;
        return row;
      });
}

}  // namespace

std::vector<PathDistRow> figure9(const FigureScale& scale) {
  // Legend of Figure 9: 4, [4..6], [4..8], [4..10], [4..20], [4..40],
  // [4..60], [4..100], [4..200].
  return path_distribution(strategy::registry().make("camchord"), scale,
                           {4, 6, 8, 10, 20, 40, 60, 100, 200});
}

std::vector<PathDistRow> figure10(const FigureScale& scale) {
  // Legend of Figure 10 (no [4..60] series in the paper).
  return path_distribution(strategy::registry().make("camkoorde"), scale,
                           {4, 6, 8, 10, 20, 40, 100, 200});
}

std::vector<Fig11Row> figure11(const FigureScale& scale) {
  // Capacities U[4..hi] give average (4 + hi) / 2; sweeping hi up to 216
  // covers the paper's x-axis (average capacity up to ~110).
  const std::vector<std::uint32_t> highs = {4u,  6u,   8u,   10u,  16u,  24u,
                                            40u, 60u, 100u, 140u, 200u, 216u};
  return runtime::map_ordered(highs.size(), scale.jobs, [&](std::size_t i) {
    const std::uint32_t hi = highs[i];
    FrozenDirectory pop =
        workload::uniform_capacity_population(spec_of(scale), 4, hi).freeze();
    double avg_c = (4.0 + hi) / 2.0;
    AveragedRun chord = run_sources(strategy::registry().make("camchord"),
                                    pop, scale.sources, scale.seed);
    AveragedRun koorde = run_sources(strategy::registry().make("camkoorde"),
                                     pop, scale.sources, scale.seed);
    Fig11Row row;
    row.avg_capacity = avg_c;
    row.camchord_path = chord.avg_path;
    row.camkoorde_path = koorde.avg_path;
    row.bound = 1.5 * std::log(static_cast<double>(scale.n)) /
                std::log(avg_c);
    return row;
  });
}

}  // namespace cam::exp
