// Multicast measurement runner: executes one or more multicasts from
// random sources over a frozen population and aggregates the paper's
// metrics (throughput, average children, average path length, path-length
// histogram). Runs over any registered MulticastStrategy
// (strategy::registry().make(key)).
#pragma once

#include <cstdint>
#include <vector>

#include "multicast/metrics.h"
#include "overlay/directory.h"
#include "strategy/strategy.h"

namespace cam::exp {

/// One tree's summary, including both throughput models: realized
/// (bandwidth split over this tree's actual children) and provisioned
/// (the paper's per-link model — bandwidth split over the links the node
/// maintains for any-source duty; see multicast/metrics.h).
struct TreeSummary {
  TreeMetrics metrics;
  double throughput_kbps = 0;
  double provisioned_kbps = 0;
};

TreeSummary summarize(const FrozenDirectory& dir, const MulticastTree& tree,
                      const strategy::MulticastStrategy& strat,
                      const strategy::StrategyParams& params = {});

/// Aggregates over several source nodes (uniformly sampled, seeded),
/// one tree after another on the calling thread. Parallelism lives one
/// level up: a sweep runs whole run_sources() calls as the cells of
/// runtime::map_ordered().
struct AveragedRun {
  double avg_children = 0;       // mean over trees of avg children/non-leaf
  double avg_degree = 0;         // mean provisioned links per node
  double throughput_kbps = 0;    // mean over trees, realized model
  double provisioned_kbps = 0;   // mean over trees, per-link model
  double avg_path = 0;           // mean over trees of avg path length
  double max_depth = 0;          // mean of per-tree max depth
  std::size_t reached = 0;       // min nodes reached across trees
  std::size_t expected = 0;      // population size
  std::uint64_t duplicates = 0;  // summed
  std::vector<std::uint64_t> depth_histogram;  // summed over trees
};

AveragedRun run_sources(const strategy::MulticastStrategy& strat,
                        const FrozenDirectory& dir, std::size_t num_sources,
                        std::uint64_t seed,
                        const strategy::StrategyParams& params = {});

}  // namespace cam::exp
