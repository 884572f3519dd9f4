// run_chaos: one seeded end-to-end chaos experiment — grow an async
// overlay, execute a FaultPlan against it (message faults, partitions,
// churn), exercise multicast while the faults are live, then heal and
// check every protocol invariant once the overlay re-stabilizes.
//
// The whole run is a deterministic function of (config, plan): the
// report's render() output — violations, realized fault journal,
// telemetry counters — is byte-identical across runs with the same
// inputs, so a failing seed IS the reproduction recipe. The camsim
// `chaos` subcommand and the chaos test suites are thin wrappers around
// this entry point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/invariants.h"
#include "proto/async_node.h"

namespace cam::fault {

struct ChaosConfig {
  std::string system = "camchord";  // "camchord" | "camkoorde"
  std::size_t n = 16;               // overlay size before the plan runs
  int bits = 10;                    // ring identifier bits
  std::uint64_t seed = 1;           // master seed (membership + faults)
  proto::AsyncConfig async;         // protocol stack configuration
  SpawnProfile spawn;               // capacities of initial + churned nodes
  /// Multicasts fired while the plan is active (dedupe/structure checks
  /// apply to these; coverage cannot — faults may legally isolate hosts).
  int mid_multicasts = 2;
  /// Extra virtual time after the last plan event before healing.
  SimTime tail_ms = 2'000;
  /// Heal + clear every fault after the plan and wait for the overlay to
  /// re-stabilize before the final invariant sweep. Disable to check a
  /// deliberately still-broken overlay (negative tests).
  bool force_quiescence = true;
  SimTime quiesce_budget_ms = 240'000;  // settle budget after heal
  /// Post-heal multicast checked for full coverage (needs quiescence).
  bool final_multicast = true;
};

/// One multicast fired during a chaos run.
struct ChaosMulticast {
  std::uint64_t stream = 0;
  Id source = 0;
  std::size_t reached = 0;  // tree size (includes the source)
  std::size_t live = 0;     // live members when it fired
  std::uint64_t dups = 0;   // raw duplicate arrivals at the tree
  bool while_faulted = false;  // fired while the plan was active
  /// Filled by the final sweep (force_quiescence only): of the members
  /// live at fire time, how many are still live (`eligible`) and how
  /// many of those hold the stream after repair ran (`eventually`).
  std::size_t eligible = 0;
  std::size_t eventually = 0;

  std::string to_string() const;
  double delivery_ratio() const {
    return live == 0 ? 0 : static_cast<double>(reached) / live;
  }
  /// Post-quiescence delivery over still-live fire-time members — the
  /// repair layer's scoreboard: 1.0 when every survivor got the stream.
  double eventual_ratio() const {
    return eligible == 0 ? 0
                         : static_cast<double>(eventually) / eligible;
  }
};

struct ChaosReport {
  bool ok = false;  // no invariant violations anywhere in the run
  ChaosConfig cfg;
  std::string plan_text;                 // canonical plan DSL
  std::vector<Violation> violations;     // aggregated, in detection order
  std::vector<std::string> journal;      // realized fault schedule
  std::vector<ChaosMulticast> multicasts;
  std::size_t members = 0;             // live members at the end
  double consistency = 0;              // final ring consistency
  std::uint64_t drops = 0, dups = 0, delays = 0;  // injector totals
  std::uint64_t trace_evictions = 0;   // nonzero = dedupe check partial
  std::string counters_csv;            // deterministic registry export

  /// The full deterministic report (same run inputs ⇒ same bytes).
  std::string render() const;
};

/// Runs one chaos experiment. Violations aggregate across the whole run;
/// report.ok is true iff none were detected.
ChaosReport run_chaos(const ChaosConfig& cfg, const FaultPlan& plan);

/// One cell of a chaos sweep: a full run_chaos world. Cells share no
/// state — each owns its Simulator, Network, HostBus, overlay, fault
/// injector, Registry, and Tracer (see DESIGN.md §9).
struct ChaosCell {
  ChaosConfig cfg;
  FaultPlan plan;
};

/// Runs a grid of chaos cells through runtime::map_ordered() (`jobs`
/// lanes; 0 = hardware concurrency) and returns the reports in cell
/// order.
/// Each report — and therefore the concatenation of render() outputs —
/// is byte-identical to a serial jobs = 1 sweep.
std::vector<ChaosReport> run_chaos_cells(const std::vector<ChaosCell>& cells,
                                         std::size_t jobs = 1);

/// The stock plan camsim uses when none is given: drop + duplicate +
/// reorder faults, a crash and a join wave, and a partition with heal.
FaultPlan default_chaos_plan();

}  // namespace cam::fault
