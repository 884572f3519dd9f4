#include "experiments/runner.h"

#include <algorithm>

#include "util/rng.h"

namespace cam::exp {

TreeSummary summarize(const FrozenDirectory& dir, const MulticastTree& tree,
                      const strategy::MulticastStrategy& strat,
                      const strategy::StrategyParams& params) {
  TreeSummary s;
  s.metrics = compute_metrics(tree);
  auto bw = [&dir](Id x) { return dir.info(x).bandwidth_kbps; };
  s.throughput_kbps = tree_throughput_kbps(tree, bw);
  s.provisioned_kbps = tree_throughput_provisioned_kbps(
      tree, bw,
      [&](Id x) { return strat.provisioned_links(dir, x, params); });
  return s;
}

AveragedRun run_sources(const strategy::MulticastStrategy& strat,
                        const FrozenDirectory& dir, std::size_t num_sources,
                        std::uint64_t seed,
                        const strategy::StrategyParams& params) {
  AveragedRun agg;
  agg.expected = dir.size();
  agg.reached = dir.size();
  if (num_sources == 0 || dir.size() == 0) return agg;

  double degree_sum = 0;
  for (Id id : dir.ids()) degree_sum += strat.provisioned_links(dir, id, params);
  agg.avg_degree = degree_sum / static_cast<double>(dir.size());

  Rng rng(seed);
  for (std::size_t s = 0; s < num_sources; ++s) {
    const Id source = dir.ids()[rng.next_below(dir.size())];
    const TreeSummary sum =
        summarize(dir, strat.build_tree(dir, source, params), strat, params);
    agg.avg_children += sum.metrics.avg_children_nonleaf;
    agg.throughput_kbps += sum.throughput_kbps;
    agg.provisioned_kbps += sum.provisioned_kbps;
    agg.avg_path += sum.metrics.avg_path_length;
    agg.max_depth += sum.metrics.max_depth;
    agg.reached = std::min(agg.reached, sum.metrics.nodes);
    agg.duplicates += sum.metrics.duplicates;
    if (agg.depth_histogram.size() < sum.metrics.depth_histogram.size()) {
      agg.depth_histogram.resize(sum.metrics.depth_histogram.size(), 0);
    }
    for (std::size_t d = 0; d < sum.metrics.depth_histogram.size(); ++d) {
      agg.depth_histogram[d] += sum.metrics.depth_histogram[d];
    }
  }
  auto k = static_cast<double>(num_sources);
  agg.avg_children /= k;
  agg.throughput_kbps /= k;
  agg.provisioned_kbps /= k;
  agg.avg_path /= k;
  agg.max_depth /= k;
  return agg;
}

}  // namespace cam::exp
