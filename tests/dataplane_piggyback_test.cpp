// Oracle-vs-piggyback depth transport regression (ISSUE 7 satellite 4).
//
// The BackpressureForwarder's default depth advertisements are an
// oracle: the child's backlog value rides inside the forwarder's own
// kDepthReport/kDepthArrive event pair. proto::DepthFeed replaces the
// payload with the asynchronous stack's queue-depth piggyback: the
// child publishes via HostBus::set_local_depth and posts a heartbeat
// datagram; the parent's view is whatever the bus has actually
// delivered. Over a LOSSLESS bus driven by the same LatencyModel as the
// forwarder, the delivered value and its timing are exactly the
// oracle's — so a full congested run must produce a ForwardStats that
// matches the oracle run field for field. Under loss the views go stale
// but the plane must still deliver everything exactly once.
#include <vector>

#include <gtest/gtest.h>

#include "dataplane/forwarder.h"
#include "multicast/tree.h"
#include "proto/depth_feed.h"
#include "proto/host_bus.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace cam {
namespace {

using dataplane::BackpressureForwarder;
using dataplane::ForwarderConfig;
using dataplane::ForwardStats;
using dataplane::TrafficSpec;

// A three-level tree with a slow interior relay: node 1 serves three
// children on a thin uplink, so real backlog builds, depth reports
// matter, and the gradient machinery (service deviation, delegation)
// actually consumes the advertised values.
MulticastTree congested_tree() {
  MulticastTree tree(0);
  tree.record(0, 1, 1);
  tree.record(0, 2, 1);
  tree.record(1, 3, 2);
  tree.record(1, 4, 2);
  tree.record(1, 5, 2);
  tree.record(2, 6, 2);
  tree.record(2, 7, 2);
  tree.record(4, 8, 3);
  tree.record(6, 9, 3);
  return tree;
}

double uplink_of(Id x) {
  if (x == 1) return 400.0;   // the hotspot
  if (x == 0) return 2000.0;  // source feeds faster than 1 drains
  return 1200.0;
}

TrafficSpec traffic() {
  TrafficSpec t;
  t.packet_bytes = 1250;
  t.num_packets = 64;
  return t;
}

ForwardStats run_oracle(const MulticastTree& tree,
                        const LatencyModel& latency, ForwarderConfig cfg) {
  BackpressureForwarder fwd(tree, latency, cfg);
  fwd.resolve_uplinks(uplink_of);
  return fwd.run(traffic());
}

void expect_same_stats(const ForwardStats& a, const ForwardStats& b) {
  EXPECT_EQ(a.session.session_rate_kbps, b.session.session_rate_kbps);
  EXPECT_EQ(a.session.completion_ms, b.session.completion_ms);
  EXPECT_EQ(a.session.mean_rate_kbps, b.session.mean_rate_kbps);
  EXPECT_EQ(a.session.max_first_packet_ms, b.session.max_first_packet_ms);
  EXPECT_EQ(a.session.receivers, b.session.receivers);
  EXPECT_EQ(a.packets_emitted, b.packets_emitted);
  EXPECT_EQ(a.copies_sent, b.copies_sent);
  EXPECT_EQ(a.copies_delivered, b.copies_delivered);
  EXPECT_EQ(a.copies_expected, b.copies_expected);
  EXPECT_EQ(a.delegated_copies, b.delegated_copies);
  EXPECT_EQ(a.zombie_copies, b.zombie_copies);
  EXPECT_EQ(a.admission_pauses, b.admission_pauses);
  EXPECT_EQ(a.admission_paused_ms, b.admission_paused_ms);
  EXPECT_EQ(a.max_backlog_ms, b.max_backlog_ms);
}

TEST(DataplanePiggyback, LosslessBusMatchesOracleFieldForField) {
  const MulticastTree tree = congested_tree();
  const ConstantLatency latency(5.0);
  ForwarderConfig cfg;
  cfg.backpressure = true;

  const ForwardStats oracle = run_oracle(tree, latency, cfg);
  // The run really was congested: advertised depths were live inputs,
  // not a stream of zeros that any transport would reproduce.
  EXPECT_GT(oracle.max_backlog_ms, 0.0);

  // Piggyback run: heartbeats ride a real HostBus over the SAME latency
  // model, so each depth lands at its parent at the oracle's instant.
  Simulator sim;
  Network net(sim, latency);
  proto::HostBus bus(net);
  proto::DepthFeed feed(bus);
  for (const auto& [child, rec] : tree.entries()) {
    if (child != tree.source()) feed.register_edge(child, rec.parent);
  }

  BackpressureForwarder fwd(tree, latency, cfg);
  fwd.resolve_uplinks(uplink_of);
  fwd.set_depth_feed(feed.hooks());
  const ForwardStats piggy = fwd.run(traffic());

  expect_same_stats(oracle, piggy);
  EXPECT_GT(feed.heartbeats_sent(), 0u);
  EXPECT_EQ(bus.messages_dropped(), 0u);
}

TEST(DataplanePiggyback, AdmissionControlAlsoMatchesOracle) {
  // Watermarked run: pauses derive from the advertised depths, so the
  // pause count and gated time pin the transport's timing too.
  const MulticastTree tree = congested_tree();
  const ConstantLatency latency(5.0);
  ForwarderConfig cfg;
  cfg.backpressure = true;
  cfg.admission_high_ms = 60.0;
  cfg.admission_low_ms = 20.0;

  const ForwardStats oracle = run_oracle(tree, latency, cfg);
  EXPECT_GT(oracle.admission_pauses, 0u);

  Simulator sim;
  Network net(sim, latency);
  proto::HostBus bus(net);
  proto::DepthFeed feed(bus);
  for (const auto& [child, rec] : tree.entries()) {
    if (child != tree.source()) feed.register_edge(child, rec.parent);
  }
  BackpressureForwarder fwd(tree, latency, cfg);
  fwd.resolve_uplinks(uplink_of);
  fwd.set_depth_feed(feed.hooks());
  expect_same_stats(oracle, fwd.run(traffic()));
}

TEST(DataplanePiggyback, LossyBusStaysCorrectJustStaler) {
  // With half the heartbeats lost the parents act on stale views — the
  // schedule may differ from the oracle, but delivery is still exactly
  // once and complete: depth advertisements are an optimization signal,
  // never a correctness dependency.
  const MulticastTree tree = congested_tree();
  const ConstantLatency latency(5.0);
  ForwarderConfig cfg;
  cfg.backpressure = true;

  Simulator sim;
  Network net(sim, latency);
  proto::HostBus bus(net);
  bus.set_loss(0.5, 1234);
  proto::DepthFeed feed(bus);
  for (const auto& [child, rec] : tree.entries()) {
    if (child != tree.source()) feed.register_edge(child, rec.parent);
  }
  BackpressureForwarder fwd(tree, latency, cfg);
  fwd.resolve_uplinks(uplink_of);
  fwd.set_depth_feed(feed.hooks());
  const ForwardStats lossy = fwd.run(traffic());

  EXPECT_EQ(lossy.copies_delivered, lossy.copies_expected);
  EXPECT_EQ(lossy.session.receivers, tree.size() - 1);
  EXPECT_GT(bus.loss_drops(), 0u);
}

}  // namespace
}  // namespace cam
