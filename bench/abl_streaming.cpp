// Ablation A7 — packet-level validation of the throughput model.
//
// The figure benches compute throughput analytically (min bandwidth
// allocation over the tree). Here the same trees carry an actual packet
// stream through FIFO uplinks (Section 4.3: "the forwarding is done on
// per packet basis") and the measured steady-state session rate is put
// next to the analytic number, for both CAMs and the uniform baseline,
// across the p sweep of Figure 8.
#include <iostream>

#include "camchord/oracle.h"
#include "camkoorde/oracle.h"
#include "dataplane/forwarder.h"
#include "experiments/figures.h"
#include "experiments/table.h"
#include "multicast/metrics.h"
#include "workload/population.h"

int main(int argc, char** argv) {
  using namespace cam;
  using namespace cam::exp;
  FigureScale scale = parse_scale(argc, argv, FigureScale{.n = 5000});

  std::cout << "# Ablation A7: analytic vs packet-level throughput "
               "(n=" << scale.n << ", 48 packets of 1250 B, 10 ms links)\n";
  Table t({"system", "p_kbps", "analytic_kbps", "measured_kbps",
           "first_pkt_ms", "complete_ms"});

  ConstantLatency lat(10.0);
  dataplane::TrafficSpec traffic;
  traffic.num_packets = 48;
  dataplane::ForwarderConfig fifo;
  fifo.backpressure = false;  // the paper's Section 4.3 FIFO uplinks

  for (double p : {25.0, 50.0, 100.0}) {
    workload::PopulationSpec spec;
    spec.n = scale.n;
    spec.ring_bits = scale.ring_bits;
    spec.seed = scale.seed;
    FrozenDirectory dir =
        workload::bandwidth_derived_population(spec, p, 4).freeze();
    auto cap = [&dir](Id x) { return dir.info(x).capacity; };
    auto bw = [&dir](Id x) { return dir.info(x).bandwidth_kbps; };

    struct Case {
      const char* name;
      MulticastTree tree;
    };
    Case cases[] = {
        {"CAM-Chord",
         camchord::multicast(dir.ring(), dir, cap, dir.ids()[0])},
        {"CAM-Koorde",
         camkoorde::multicast(dir.ring(), dir, cap, dir.ids()[0])},
    };
    for (const Case& c : cases) {
      double analytic = tree_throughput_kbps(c.tree, bw);
      dataplane::BackpressureForwarder fwd(c.tree, lat, fifo);
      fwd.resolve_uplinks(bw);
      const dataplane::SessionStats r = fwd.run(traffic).session;
      t.add_row({c.name, fmt(p, 0), fmt(analytic, 1),
                 fmt(r.session_rate_kbps, 1), fmt(r.max_first_packet_ms, 0),
                 fmt(r.completion_ms, 0)});
    }
  }
  t.print(std::cout);
  return 0;
}
