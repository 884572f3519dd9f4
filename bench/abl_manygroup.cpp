// Ablation A13 — many-group streaming over one shared overlay.
//
// One 2000-node overlay hosts 500+ concurrent multicast groups: a
// zipf-sized group fleet is admitted through the SessionLayer's shared
// CapacityLedger (every node's single uplink budget is split across all
// groups it relays for; joins that would oversubscribe anyone are
// rejected), and every admitted group then streams simultaneously
// through the multi-group data plane, where bins from different groups
// genuinely contend in the same per-link BinQueues. The grid crosses
// CAM-Chord / CAM-Koorde with the two service disciplines (shared FIFO
// uplink vs per-group ledger shares) and reports aggregate goodput,
// Jain fairness over per-group session rates, and p99 delivery latency.
//
// Hard invariant, asserted per cell: after the whole workload no node's
// summed uplink usage exceeds its capacity and the session layer's full
// cross-group consistency check is clean — a violation exits nonzero.
//
// Each cell is a runtime::run_cells session cell; --jobs parallelism is
// byte-identical to serial. --json emits the rows
// (tests/golden/cli/abl_manygroup.txt pins them).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "experiments/figures.h"
#include "experiments/table.h"
#include "runtime/cells.h"

int main(int argc, char** argv) {
  using namespace cam;
  using namespace cam::exp;
  using namespace cam::runtime;

  bool json = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  FigureScale scale = parse_scale(static_cast<int>(args.size()), args.data(),
                                  FigureScale{.n = 2000, .seed = 7});

  workload::PopulationSpec spec;
  spec.n = scale.n;
  spec.ring_bits = scale.ring_bits;
  spec.seed = scale.seed;
  FrozenDirectory dir =
      workload::uniform_capacity_population(spec, 4, 10).freeze();

  // The fleet: n/4 zipf-sized groups (500 at the default n=2000), small
  // rooms dominating with a tail of larger sessions — every group
  // competing for the same uplink budgets.
  const auto ngroups = static_cast<std::uint32_t>(scale.n / 4);
  workload::WorkloadPlan plan;
  plan.groups(ngroups, 1.0, 2, 16);

  struct Mode {
    const char* name;
    session::SchedMode mode;
  };
  const Mode modes[] = {{"shared", session::SchedMode::kShared},
                        {"ledger-shares", session::SchedMode::kLedgerShares}};
  const char* strategies[] = {"camchord", "camkoorde"};

  std::vector<SessionCellSpec> cells;
  for (const char* key : strategies) {
    for (const Mode& m : modes) {
      SessionCellSpec cell;
      cell.strategy = key;
      cell.prebuilt = &dir;
      cell.seed = scale.seed;
      cell.plan = plan;
      cell.fwd.mode = m.mode;
      cell.stream_packets = 16;
      cells.push_back(cell);
    }
  }
  std::vector<SessionCellResult> results =
      run_cells(cells, RunOptions{scale.jobs});

  // The ledger contract, checked on every cell: shared-uplink usage
  // within capacity everywhere, and zero cross-group inconsistencies.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SessionCellResult& r = results[i];
    if (r.check_violations != 0 || r.max_utilization > 1.0) {
      std::fprintf(stderr,
                   "abl_manygroup: INVARIANT VIOLATION in cell %zu "
                   "(%s): %zu check defects, max_util=%f\n",
                   i, strategy::registry().display_name(cells[i].strategy).c_str(),
                   r.check_violations, r.max_utilization);
      return 1;
    }
    for (const session::GroupRunStats& g : r.stats.groups) {
      if (g.duplicate_deliveries != 0) {
        std::fprintf(stderr,
                     "abl_manygroup: duplicate deliveries in cell %zu "
                     "group %llu\n",
                     i, static_cast<unsigned long long>(g.group));
        return 1;
      }
    }
  }

  auto mode_name = [&](std::size_t i) { return modes[i % 2].name; };

  if (json) {
    std::cout << "{\"rows\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const SessionCellResult& r = results[i];
      if (i > 0) std::cout << ",";
      std::cout << "{\"system\":\""
                << strategy::registry().display_name(cells[i].strategy)
                << "\",\"mode\":\"" << mode_name(i)
                << "\",\"groups\":" << r.groups
                << ",\"streamed\":" << r.stats.groups.size()
                << ",\"memberships\":" << r.memberships
                << ",\"joins_ok\":" << r.apply.joins_ok
                << ",\"joins_rejected\":" << r.apply.joins_rejected
                << ",\"max_util\":" << r.max_utilization
                << ",\"goodput_kbps\":" << r.stats.aggregate_goodput_kbps
                << ",\"jain\":" << r.stats.jain_fairness
                << ",\"p99_ms\":" << r.stats.p99_latency_ms
                << ",\"completion_ms\":" << r.stats.completion_ms
                << ",\"copies\":" << r.stats.copies_sent << "}";
    }
    std::cout << "]}\n";
    return 0;
  }

  std::cout << "# Ablation A13: many-group streaming over one overlay (n="
            << scale.n << ", " << ngroups
            << " zipf groups, 16 packets/group, shared uplink ledger)\n";
  Table t({"system", "mode", "groups", "streamed", "members", "rejected",
           "max_util", "goodput_kbps", "jain", "p99_ms"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SessionCellResult& r = results[i];
    t.add_row({strategy::registry().display_name(cells[i].strategy),
               mode_name(i),
               std::to_string(r.groups),
               std::to_string(r.stats.groups.size()),
               std::to_string(r.memberships),
               std::to_string(r.apply.joins_rejected),
               fmt(r.max_utilization, 3),
               fmt(r.stats.aggregate_goodput_kbps, 1),
               fmt(r.stats.jain_fairness, 4),
               fmt(r.stats.p99_latency_ms, 1)});
  }
  t.print(std::cout);
  return 0;
}
