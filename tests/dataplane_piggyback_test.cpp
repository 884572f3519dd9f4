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
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dataplane/forwarder.h"
#include "multicast/tree.h"
#include "proto/depth_feed.h"
#include "proto/host_bus.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "telemetry/sink.h"
#include "util/flat_table.h"

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
  // Watermarked run: pauses come from each member's own backlog and its
  // children's congestion flags, not from advertised depths, so the
  // pause count and gated time must not move with the transport.
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

TEST(DataplanePiggyback, LostHeartbeatLeavesNoFreshSample) {
  // A delivered heartbeat samples once. Reading the same report again,
  // or reading after the next heartbeat was lost, gives NaN, so the
  // parent keeps its view and the bytes it has delegated since instead
  // of taking the older report as new.
  Simulator sim;
  const ConstantLatency latency(5.0);
  Network net(sim, latency);
  proto::HostBus bus(net);
  proto::DepthFeed feed(bus);
  const Id child = 3, parent = 8;
  feed.register_edge(child, parent);
  const dataplane::DepthFeedHooks hooks = feed.hooks();

  hooks.publish(child, 12.5, 0.0);
  hooks.advance(10.0);
  EXPECT_EQ(hooks.sample(parent, child), 12.5);
  EXPECT_TRUE(std::isnan(hooks.sample(parent, child)));

  bus.set_loss(1.0, 99);
  hooks.publish(child, 40.0, 20.0);
  hooks.advance(30.0);
  EXPECT_TRUE(std::isnan(hooks.sample(parent, child)));
  EXPECT_EQ(bus.loss_drops(), 1u);
}

/// A DepthFeed over a lossless HostBus driven by `latency`, with every
/// edge of `tree` registered.
struct LosslessFeed {
  Simulator sim;
  Network net;
  proto::HostBus bus{net};
  proto::DepthFeed feed{bus};

  LosslessFeed(const MulticastTree& tree, const LatencyModel& latency)
      : net(sim, latency) {
    for (const auto& [child, rec] : tree.entries()) {
      if (child != tree.source()) feed.register_edge(child, rec.parent);
    }
  }
};

/// One depth report as the forwarder published it.
struct Report {
  Id child = 0;
  double backlog_ms = 0;
  SimTime at = 0;
};

TEST(DataplanePiggyback, ReportsCarryNewsOrRefresh) {
  // A child reports when its backlog changed, when a delegated duty
  // landed on it, or after 200 ms (10 report ticks) of silence.
  constexpr SimTime kRefreshMs = 200.0;
  constexpr SimTime kTickMs = 20.0;
  const MulticastTree tree = congested_tree();
  const ConstantLatency latency(5.0);
  ForwarderConfig cfg;
  cfg.backpressure = true;

  for (const double rate_kbps : {60.0, 0.0}) {
    SCOPED_TRACE(rate_kbps);
    LosslessFeed f(tree, latency);
    dataplane::DepthFeedHooks hooks = f.feed.hooks();
    std::vector<Report> reports;
    hooks.publish = [&reports, inner = hooks.publish](
                        Id child, double backlog_ms, SimTime now) {
      reports.push_back({child, backlog_ms, now});
      inner(child, backlog_ms, now);
    };
    BackpressureForwarder fwd(tree, latency, cfg);
    fwd.resolve_uplinks(uplink_of);
    fwd.set_depth_feed(hooks);
    TrafficSpec t = traffic();
    t.source_rate_kbps = rate_kbps;
    const ForwardStats stats = fwd.run(t);
    EXPECT_EQ(stats.copies_delivered, stats.copies_expected);
    EXPECT_EQ(f.feed.heartbeats_sent(), reports.size());

    // Each child's previous report, starting from the parent's initial
    // view: 0 ms, as if reported at t = 0.
    FlatMap<Id, Report> last;
    for (const auto& [child, rec] : tree.entries()) {
      if (child != tree.source()) last[child] = Report{child, 0.0, 0.0};
    }
    std::size_t repeats = 0;
    for (const Report& r : reports) {
      Report& prev = last.at(r.child);
      if (rate_kbps > 0 && r.backlog_ms == prev.backlog_ms) {
        // Paced, nothing delegated: a repeat is only ever the refresh.
        EXPECT_EQ(r.at - prev.at, kRefreshMs) << r.child << " @" << r.at;
        ++repeats;
      }
      EXPECT_LE(r.at - prev.at, kRefreshMs) << r.child << " @" << r.at;
      prev = r;
    }
    if (rate_kbps > 0) {
      EXPECT_EQ(stats.delegated_copies, 0u);
      EXPECT_GT(repeats, 0u);
      EXPECT_LT(repeats, reports.size());
    } else {
      EXPECT_GT(stats.delegated_copies, 0u);
      // Ticks run every 20 ms while a copy is live: the last one is the
      // last multiple of 20 ms before the final delivery.
      const SimTime last_tick =
          std::ceil(stats.session.completion_ms / kTickMs) * kTickMs - kTickMs;
      for (const auto& [child, prev] : last) {
        EXPECT_LE(last_tick - prev.at, kRefreshMs) << child;
      }
    }
  }
}

TEST(DataplanePiggyback, RegistryCountsReportsAndDelegations) {
  // Booking the counters at the end of the run changes nothing in it;
  // the reports booked are the heartbeats the feed sent.
  const MulticastTree tree = congested_tree();
  const ConstantLatency latency(5.0);
  ForwarderConfig cfg;
  cfg.backpressure = true;

  LosslessFeed plain(tree, latency);
  BackpressureForwarder bare(tree, latency, cfg);
  bare.resolve_uplinks(uplink_of);
  bare.set_depth_feed(plain.feed.hooks());
  const ForwardStats want = bare.run(traffic());

  telemetry::Registry reg;
  LosslessFeed f(tree, latency);
  BackpressureForwarder fwd(tree, latency, cfg, telemetry::Sink{&reg, nullptr});
  fwd.resolve_uplinks(uplink_of);
  fwd.set_depth_feed(f.feed.hooks());
  const ForwardStats got = fwd.run(traffic());

  expect_same_stats(want, got);
  EXPECT_GT(got.delegated_copies, 0u);
  EXPECT_EQ(reg.value("dataplane.depth.reports"), f.feed.heartbeats_sent());
  EXPECT_EQ(reg.value("dataplane.depth.reports"),
            plain.feed.heartbeats_sent());
  EXPECT_GT(reg.value("dataplane.depth.suppressed"), 0u);
  EXPECT_EQ(reg.value("dataplane.delegated"), got.delegated_copies);
}

}  // namespace
}  // namespace cam
