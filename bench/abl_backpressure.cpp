// Ablation A12 — backpressure vs FIFO forwarding under a hotspot link.
//
// The same multicast trees carry the same paced packet stream twice:
// once through the legacy FIFO uplink plane and once through the
// backpressure data plane (src/dataplane). Uncongested, the two must
// agree bit for bit — backpressure with shallow queues IS the FIFO
// schedule (tests/dataplane_test.cpp pins this). Then the busiest relay
// has its uplink cut to 25% and the comparison repeats: FIFO serializes
// every copy through the hotspot and the session rate collapses to the
// hotspot's drain rate, while backpressure sheds forwarding duty to
// children that already hold each packet and sustains a measurably
// higher rate. Each grid cell is a runtime::run_cells stream cell;
// --jobs parallelism is byte-identical to serial.
//
// Two gates per system, each failure one stderr line and exit 1 (stdout
// is the same either way): uncongested, backpressure reproduces FIFO's
// session rate and completion time exactly; at the 25% hotspot its
// session rate beats FIFO's. --json emits the rows as JSON
// (tests/golden/cli/abl_backpressure.txt pins them).
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
      workload::bandwidth_derived_population(spec, 100.0, 4).freeze();

  // Paced source: slow enough that the intact tree carries it without
  // queueing (so FIFO and backpressure agree exactly), fast enough that
  // a quartered hotspot uplink cannot keep up on its own.
  dataplane::TrafficSpec traffic;
  traffic.packet_bytes = 1250;
  traffic.num_packets = 96;
  traffic.source_rate_kbps = 60.0;

  struct Mode {
    const char* name;
    bool backpressure;
  };
  const Mode modes[] = {{"fifo", false}, {"backpressure", true}};
  const char* strategies[] = {"camchord", "camkoorde"};
  const double hotspots[] = {1.0, 0.25};

  std::vector<StreamCellSpec> cells;
  for (const char* key : strategies) {
    for (double h : hotspots) {
      for (const Mode& m : modes) {
        StreamCellSpec cell;
        cell.strategy = key;
        cell.prebuilt = &dir;
        cell.seed = scale.seed;
        cell.traffic = traffic;
        cell.fwd.backpressure = m.backpressure;
        cell.hotspot_factor = h;
        cells.push_back(cell);
      }
    }
  }
  std::vector<StreamCellResult> results =
      run_cells(cells, RunOptions{scale.jobs});

  // Each system's four cells, in grid order: hotspot 1.0 fifo, 1.0
  // backpressure, 0.25 fifo, 0.25 backpressure.
  bool gates_ok = true;
  for (std::size_t i = 0; i < cells.size(); i += 4) {
    const dataplane::SessionStats& fifo = results[i].stats.session;
    const dataplane::SessionStats& bp = results[i + 1].stats.session;
    const double hot_fifo = results[i + 2].stats.session.session_rate_kbps;
    const double hot_bp = results[i + 3].stats.session.session_rate_kbps;
    const char* key = cells[i].strategy.c_str();
    if (bp.session_rate_kbps != fifo.session_rate_kbps ||
        bp.completion_ms != fifo.completion_ms) {
      std::fprintf(stderr,
                   "abl_backpressure: GATE FAILURE: %s uncongested "
                   "backpressure diverged from FIFO\n",
                   key);
      gates_ok = false;
    }
    if (!(hot_bp > hot_fifo)) {
      std::fprintf(stderr,
                   "abl_backpressure: GATE FAILURE: %s backpressure %.2f "
                   "kbps does not beat FIFO %.2f kbps at the hotspot\n",
                   key, hot_bp, hot_fifo);
      gates_ok = false;
    }
  }

  if (json) {
    std::cout << "{\"rows\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const StreamCellResult& r = results[i];
      const char* mode = cells[i].fwd.backpressure ? "backpressure" : "fifo";
      if (i > 0) std::cout << ",";
      std::cout << "{\"system\":\"" << strategy::registry().display_name(cells[i].strategy)
                << "\",\"hotspot\":" << cells[i].hotspot_factor
                << ",\"mode\":\"" << mode
                << "\",\"session_kbps\":" << r.stats.session.session_rate_kbps
                << ",\"analytic_kbps\":" << r.analytic_kbps
                << ",\"delegated\":" << r.stats.delegated_copies
                << ",\"zombies\":" << r.stats.zombie_copies
                << ",\"pauses\":" << r.stats.admission_pauses
                << ",\"completion_ms\":" << r.stats.session.completion_ms
                << "}";
    }
    std::cout << "]}\n";
    return gates_ok ? 0 : 1;
  }

  std::cout << "# Ablation A12: backpressure vs FIFO under a hotspot uplink "
               "(n=" << scale.n << ", " << traffic.num_packets
            << " packets of " << traffic.packet_bytes << " B paced at "
            << traffic.source_rate_kbps << " kbps, 10 ms links)\n";
  Table t({"system", "hotspot", "mode", "session_kbps", "analytic_kbps",
           "delegated", "zombies", "pauses", "complete_ms"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const StreamCellResult& r = results[i];
    t.add_row({strategy::registry().display_name(cells[i].strategy),
               fmt(cells[i].hotspot_factor, 2),
               cells[i].fwd.backpressure ? "backpressure" : "fifo",
               fmt(r.stats.session.session_rate_kbps, 1),
               fmt(r.analytic_kbps, 1),
               std::to_string(r.stats.delegated_copies),
               std::to_string(r.stats.zombie_copies),
               std::to_string(r.stats.admission_pauses),
               fmt(r.stats.session.completion_ms, 0)});
  }
  t.print(std::cout);
  return gates_ok ? 0 : 1;
}
