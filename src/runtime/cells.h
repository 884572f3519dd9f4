// The unified cell-run API: every oracle-mode measurement in the repo —
// figure benches, ablations, camsim sweeps — is some grid of
// (population, strategy, seed) cells, each executing build-population →
// run-multicasts → aggregate. CellSpec captures one cell declaratively;
// run_cells() executes a whole grid through map_ordered() and returns
// results in cell order, byte-identical for any --jobs value.
//
// Thread-safety model (DESIGN.md §9): a cell shares NOTHING mutable.
// Populations are either built inside the cell from the recipe, or
// passed as a *frozen* (immutable, const-only) directory that any
// number of cells may read concurrently. The oracle multicast/lookup
// paths hold no static caches — audited when this engine landed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/forwarder.h"
#include "experiments/runner.h"
#include "overlay/directory.h"
#include "runtime/sweep_pool.h"
#include "session/apply.h"
#include "session/multi_forwarder.h"
#include "strategy/strategy.h"
#include "workload/population.h"
#include "workload/session_workload.h"

namespace cam::runtime {

/// How a cell builds its population: the uniform or the
/// bandwidth-derived capacity model of workload/population.h. A recipe
/// is a value (no directory handles), so a cell grid is cheap to
/// describe and each cell can materialize its own world inside the lane
/// that runs it.
struct PopulationRecipe {
  enum class Model { kUniform, kBandwidthDerived };

  Model model = Model::kUniform;
  workload::PopulationSpec spec;
  std::uint32_t cap_lo = 4, cap_hi = 10;  // kUniform
  double per_link_kbps = 100;             // kBandwidthDerived: p
  std::uint32_t min_cap = 4;              // kBandwidthDerived clamp

  static PopulationRecipe uniform(const workload::PopulationSpec& spec,
                                  std::uint32_t lo, std::uint32_t hi);
  static PopulationRecipe bandwidth_derived(
      const workload::PopulationSpec& spec, double per_link_kbps,
      std::uint32_t min_cap = 4);

  FrozenDirectory build() const;
};

/// One measurement cell. If `prebuilt` is set it is used instead of the
/// recipe — FrozenDirectory is immutable, so one snapshot may back many
/// concurrent cells; the caller keeps it alive across run_cells().
struct CellSpec {
  std::string strategy = "camchord";  // registry key
  PopulationRecipe population;
  const FrozenDirectory* prebuilt = nullptr;
  std::size_t sources = 3;            // multicast trees averaged
  std::uint64_t seed = 1;             // source-draw seed
  strategy::StrategyParams params;    // Chord base / Koorde degree / rivals
};

/// Executes one cell on the calling thread.
exp::AveragedRun run_cell(const CellSpec& cell);

struct RunOptions {
  std::size_t jobs = 1;  // 0 = hardware concurrency
};

/// Executes a cell grid; results land in spec order regardless of jobs.
std::vector<exp::AveragedRun> run_cells(const std::vector<CellSpec>& cells,
                                        const RunOptions& opts = {});

/// One packet-level data-plane measurement cell: build (or reuse) a
/// population, grow one multicast tree from a seeded source, then push a
/// packet stream through src/dataplane with the given forwarder config.
/// `hotspot_factor` scales the uplink of the tree's busiest relay (the
/// non-source interior node with the most children; ties break to the
/// smallest id) — the hotspot-link experiment of abl_backpressure.
struct StreamCellSpec {
  std::string strategy = "camchord";  // registry key
  PopulationRecipe population;
  const FrozenDirectory* prebuilt = nullptr;
  std::uint64_t seed = 1;             // source-draw seed
  strategy::StrategyParams params;    // structural knobs per strategy
  dataplane::ForwarderConfig fwd;
  dataplane::TrafficSpec traffic;
  double hotspot_factor = 1.0;      // 1.0 = no induced hotspot
};

struct StreamCellResult {
  dataplane::ForwardStats stats;
  /// Analytic session rate (multicast/metrics.h) for the same tree and
  /// the same (hotspot-scaled) uplink table.
  double analytic_kbps = 0;
  Id hotspot = 0;                   // scaled node (0 if none qualified)
  std::size_t hotspot_children = 0;
};

/// Executes one stream cell on the calling thread. Cells share nothing
/// mutable, so any grid of them is safe to run in parallel.
StreamCellResult run_stream_cell(const StreamCellSpec& cell);

/// Stream-cell grid on the same ordered-sweep machinery: results in
/// spec order, byte-identical for any --jobs value.
std::vector<StreamCellResult> run_cells(
    const std::vector<StreamCellSpec>& cells, const RunOptions& opts = {});

/// One many-group session cell: build (or reuse) a population, replay a
/// WorkloadPlan script against a SessionLayer (capacity-aware group
/// admission), then stream the surviving groups concurrently through
/// the MultiGroupForwarder. The production-workload counterpart of
/// StreamCellSpec — `camsim groups` and bench/abl_manygroup are grids
/// of these.
struct SessionCellSpec {
  std::string strategy = "camchord";  // registry key (needs lookup support)
  PopulationRecipe population;
  const FrozenDirectory* prebuilt = nullptr;
  std::uint64_t seed = 1;            // workload expansion seed
  workload::WorkloadPlan plan;       // membership script
  session::MultiGroupConfig fwd;     // scheduling discipline + admission
  std::uint32_t stream_packets = 32; // per-group measured stream
  std::size_t stream_groups = 0;     // cap on streamed groups; 0 = all
};

struct SessionCellResult {
  session::ApplyStats apply;
  session::SessionCounters counters;
  std::size_t groups = 0;          // live groups after the script
  std::size_t memberships = 0;     // sum of final group sizes
  double max_utilization = 0;      // deepest ledger fill
  std::size_t check_violations = 0;  // SessionLayer::check() defects
  session::MultiGroupStats stats;  // the streamed groups' scoreboard
};

/// Executes one session cell on the calling thread. Cells share nothing
/// mutable, so any grid of them is safe to run in parallel.
SessionCellResult run_session_cell(const SessionCellSpec& cell);

/// Session-cell grid: results in spec order for any --jobs value.
std::vector<SessionCellResult> run_cells(
    const std::vector<SessionCellSpec>& cells, const RunOptions& opts = {});

}  // namespace cam::runtime
