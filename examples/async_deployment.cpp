// The asynchronous protocol stack in action: the deployable shape of
// CAM-Chord, where nodes interact only through messages, failures are
// silent, and everything is repaired by timers and timeouts.
//
//   $ ./example_async_deployment
//
// A day-one rollout story: bootstrap a seed node, stream in members over
// virtual time, watch the ring converge purely through stabilize /
// fix-neighbor / ping timers, crash a rack's worth of nodes without
// telling anyone, and watch timeouts detect and route around them.
#include <cstdio>

#include "multicast/metrics.h"
#include "proto/async_camchord.h"
#include "util/rng.h"

int main() {
  using namespace cam;
  using namespace cam::proto;

  RingSpace ring(16);
  Simulator sim;
  UniformLatency latency(10, 60, 7);  // WAN-ish RTTs
  Network net(sim, latency);
  HostBus bus(net);
  AsyncCamChordNet overlay(ring, bus);
  Rng rng(99);

  auto host = [&] {
    return NodeInfo{static_cast<std::uint32_t>(rng.uniform(4, 10)),
                    400 + rng.next_double() * 600};
  };

  // Seed node, then one join every ~400 ms of virtual time.
  overlay.bootstrap(rng.next_below(ring.size()), host());
  overlay.run_for(1'000);
  while (overlay.size() < 80) {
    Id id = rng.next_below(ring.size());
    if (overlay.known(id)) continue;
    auto members = overlay.members_sorted();
    overlay.spawn(id, host(), members[rng.next_below(members.size())]);
    overlay.run_for(400);
  }
  std::printf("t=%6.1fs  %zu members spawned, ring consistency %.0f%%\n",
              sim.now() / 1000, overlay.size(),
              100 * overlay.ring_consistency());

  // Let the maintenance timers finish linking everyone in.
  while (overlay.ring_consistency() < 1.0) overlay.run_for(2'000);
  std::printf("t=%6.1fs  converged purely via timers (no oracle)\n",
              sim.now() / 1000);
  overlay.run_for(60'000);  // fix-neighbor timers refresh the tables

  // Any-source multicast through real messages.
  Id source = overlay.members_sorted()[17];
  MulticastTree tree = overlay.multicast(source);
  std::printf("t=%6.1fs  multicast reached %zu/%zu members, depth %d\n",
              sim.now() / 1000, tree.size(), overlay.size(),
              compute_metrics(tree).max_depth);

  // A correlated failure: 15 nodes vanish silently.
  auto members = overlay.members_sorted();
  for (int i = 0; i < 15; ++i) {
    overlay.crash(members[static_cast<std::size_t>(i) * 5]);
  }
  std::printf("t=%6.1fs  crashed 15 nodes (nobody was told)\n",
              sim.now() / 1000);
  MulticastTree degraded = overlay.multicast(overlay.members_sorted()[0]);
  std::printf("t=%6.1fs  multicast right after: %zu/%zu reached\n",
              sim.now() / 1000, degraded.size(), overlay.size());

  // Timeouts detect the dead; stabilization re-links the ring.
  SimTime repair_start = sim.now();
  while (overlay.ring_consistency() < 1.0) overlay.run_for(2'000);
  std::printf("t=%6.1fs  ring repaired in %.1fs of timeouts + stabilize\n",
              sim.now() / 1000, (sim.now() - repair_start) / 1000);
  overlay.run_for(60'000);
  MulticastTree healed = overlay.multicast(overlay.members_sorted()[0]);
  std::printf("t=%6.1fs  multicast after repair: %zu/%zu reached\n",
              sim.now() / 1000, healed.size(), overlay.size());

  const NetStats& stats = net.stats();
  std::printf(
      "\ntraffic totals: %llu control, %llu maintenance, %llu data msgs\n",
      static_cast<unsigned long long>(
          stats.messages[static_cast<int>(MsgClass::kControl)]),
      static_cast<unsigned long long>(
          stats.messages[static_cast<int>(MsgClass::kMaintenance)]),
      static_cast<unsigned long long>(
          stats.messages[static_cast<int>(MsgClass::kData)]));
  return 0;
}
