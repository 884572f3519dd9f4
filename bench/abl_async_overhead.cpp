// Ablation A10 — asynchronous steady-state overhead and repair latency:
// CAM-Chord vs CAM-Koorde on the message-passing stack.
//
// Section 2: CAM-Chord's richer tables mean more maintenance traffic;
// CAM-Koorde keeps exactly c_x links. Both repair crashes through
// timeouts alone here — no oracle — so the table also reports how long
// each takes to re-close the ring after losing 20% of its members.
//
// A telemetry Registry is attached for the whole run; the steady-state
// and repair windows additionally report RPC timeouts from it, so the
// bench doubles as a live check that metrics stay on under load.
#include <iostream>

#include "experiments/figures.h"
#include "experiments/table.h"
#include "proto/async_camchord.h"
#include "proto/async_camkoorde.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace {

using namespace cam;
using namespace cam::proto;

struct Row {
  double maint_msgs_per_node_s = 0;  // control + maintenance classes
  double repair_s = -1;              // -1: did not re-close in budget
  std::uint64_t steady_timeouts = 0;  // RPC timeouts in the steady window
  std::uint64_t repair_timeouts = 0;  // RPC timeouts while repairing
};

template <typename Net>
Row run(std::size_t n, std::uint32_t c, std::uint64_t seed) {
  RingSpace ring(16);
  Simulator sim;
  UniformLatency lat(5, 25, seed);
  Network net(sim, lat);
  HostBus bus(net);
  telemetry::Registry reg;  // outlives the overlay attached to it
  Net overlay(ring, bus);
  Rng rng(seed);
  overlay.set_telemetry({&reg, nullptr});

  auto info = [&] { return NodeInfo{c, 700}; };
  overlay.bootstrap(rng.next_below(ring.size()), info());
  overlay.run_for(500);
  while (overlay.size() < n) {
    Id id = rng.next_below(ring.size());
    if (overlay.known(id)) continue;
    auto members = overlay.members_sorted();
    overlay.spawn(id, info(), members[rng.next_below(members.size())]);
    overlay.run_for(250);
  }
  while (overlay.ring_consistency() < 1.0) overlay.run_for(2'000);
  overlay.run_for(60'000);  // let the tables converge

  // Steady-state maintenance rate over 60 virtual seconds. Counters are
  // monotonic, so windows are deltas against marks.
  net.reset_stats();
  std::uint64_t timeouts_mark = reg.value("rpc.timeouts");
  overlay.run_for(60'000);
  double msgs =
      static_cast<double>(
          net.stats().messages[static_cast<int>(MsgClass::kControl)] +
          net.stats().messages[static_cast<int>(MsgClass::kMaintenance)]);
  Row row;
  row.maint_msgs_per_node_s =
      msgs / static_cast<double>(overlay.size()) / 60.0;
  row.steady_timeouts = reg.value("rpc.timeouts") - timeouts_mark;

  // Crash 20%, time the repair (timeout-driven only).
  auto members = overlay.members_sorted();
  for (std::size_t i = 0; i < members.size(); i += 5) {
    overlay.crash(members[i]);
  }
  SimTime start = sim.now();
  timeouts_mark = reg.value("rpc.timeouts");
  const SimTime budget = 600'000;
  while (sim.now() - start < budget) {
    overlay.run_for(1'000);
    if (overlay.ring_consistency() == 1.0) {
      row.repair_s = (sim.now() - start) / 1000.0;
      break;
    }
  }
  row.repair_timeouts = reg.value("rpc.timeouts") - timeouts_mark;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cam::exp;
  FigureScale scale = parse_scale(argc, argv, FigureScale{.n = 120});

  std::cout << "# Ablation A10: async steady-state maintenance and crash "
               "repair (n=" << scale.n << ", 20% crash wave)\n";
  Table t({"capacity", "system", "maint_msgs/node/s", "repair_s",
           "steady_timeouts", "repair_timeouts"});
  for (std::uint32_t c : {8u, 16u, 32u}) {
    Row chord = run<AsyncCamChordNet>(scale.n, c, scale.seed);
    Row koorde = run<AsyncCamKoordeNet>(scale.n, c, scale.seed);
    t.add_row({std::to_string(c), "CAM-Chord",
               fmt(chord.maint_msgs_per_node_s, 2), fmt(chord.repair_s, 1),
               std::to_string(chord.steady_timeouts),
               std::to_string(chord.repair_timeouts)});
    t.add_row({std::to_string(c), "CAM-Koorde",
               fmt(koorde.maint_msgs_per_node_s, 2), fmt(koorde.repair_s, 1),
               std::to_string(koorde.steady_timeouts),
               std::to_string(koorde.repair_timeouts)});
  }
  t.print(std::cout);
  return 0;
}
