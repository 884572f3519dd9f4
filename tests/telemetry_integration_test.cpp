// Integration tests: the telemetry subsystem attached to the live async
// protocol stack. The trace must agree with the stack's own ground
// truth — the recorded MulticastTree, the strike bookkeeping, and the
// HostBus drop counters — not merely be plausible.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "proto/async_camchord.h"
#include "proto/async_camkoorde.h"
#include "telemetry/sink.h"
#include "telemetry/trace.h"
#include "util/rng.h"

namespace cam::proto {
namespace {

using telemetry::EventType;
using telemetry::TraceEvent;

template <typename Net>
struct Fixture {
  RingSpace ring{16};
  Simulator sim;
  UniformLatency lat{5, 25, 17};
  Network net{sim, lat};
  HostBus bus{net};
  Net overlay;
  Rng rng{31};

  explicit Fixture(AsyncConfig cfg = {}) : overlay{ring, bus, cfg} {}

  NodeInfo info() {
    return NodeInfo{static_cast<std::uint32_t>(rng.uniform(4, 10)),
                    400 + rng.next_double() * 600};
  }

  void grow(std::size_t n) {
    Id first = rng.next_below(ring.size());
    overlay.bootstrap(first, info());
    overlay.run_for(500);
    while (overlay.size() < n) {
      Id id = rng.next_below(ring.size());
      if (overlay.running(id)) continue;
      auto members = overlay.members_sorted();
      overlay.spawn(id, info(), members[rng.next_below(members.size())]);
      overlay.run_for(300);
    }
    SimTime deadline = sim.now() + 240'000;
    while (sim.now() < deadline && overlay.ring_consistency() < 1.0) {
      overlay.run_for(2'000);
    }
    overlay.run_for(60'000);
  }
};

TEST(TelemetryIntegration, TracedMulticastReplaysToRecordedTree) {
  telemetry::Registry reg;  // sinks outlive the fixture's overlay
  telemetry::Tracer tracer(1 << 16, telemetry::kMilestoneEvents);
  Fixture<AsyncCamChordNet> fx;
  fx.grow(30);

  fx.overlay.set_telemetry({&reg, &tracer});

  Id source = fx.overlay.members_sorted()[2];
  MulticastTree tree = fx.overlay.multicast(source);
  ASSERT_EQ(tree.size(), fx.overlay.size());
  EXPECT_EQ(tracer.dropped(), 0u);

  std::uint64_t stream = fx.overlay.last_stream_id();
  auto events = tracer.events();
  std::size_t delivers = 0;
  for (const auto& e : events) {
    if (e.type == EventType::kMulticastDeliver && e.a == stream) ++delivers;
  }
  // Exactly one delivery event per reached node, mirrored in the
  // registry's per-node counter family.
  EXPECT_EQ(delivers, tree.size());
  EXPECT_EQ(reg.value("mc.delivered"), tree.size());

  auto replayed = telemetry::replay_multicast(events, stream);
  ASSERT_EQ(replayed.size(), tree.entries().size());
  for (const auto& [id, rec] : tree.entries()) {
    auto it = replayed.find(id);
    ASSERT_NE(it, replayed.end()) << "node " << id << " missing from replay";
    EXPECT_EQ(it->second.parent, rec.parent) << "node " << id;
    EXPECT_EQ(it->second.depth, rec.depth) << "node " << id;
  }
}

TEST(TelemetryIntegration, TimeoutEventsMatchStrikeBookkeeping) {
  // Registry + tracer attached at the same instant (after growth): from
  // then on every traced timeout has a counted twin. The mask keeps the
  // high-rate kRpcIssue stream out but admits the suspicion triple.
  // Declared before the fixture so the sinks outlive the overlay.
  telemetry::Registry reg;
  telemetry::EventMask mask = telemetry::event_bit(EventType::kRpcTimeout) |
                              telemetry::event_bit(EventType::kSuspect) |
                              telemetry::event_bit(EventType::kAbsolve);
  telemetry::Tracer tracer(1 << 16, mask);

  AsyncConfig cfg;
  Fixture<AsyncCamChordNet> fx(cfg);
  fx.grow(25);
  fx.overlay.set_telemetry({&reg, &tracer});

  fx.bus.set_loss(0.20, 99);
  fx.overlay.run_for(45'000);
  ASSERT_EQ(tracer.dropped(), 0u);

  auto events = tracer.events();
  std::size_t timeout_events = 0;
  // Timeouts since the last absolve, per (node, peer) edge.
  std::map<std::pair<Id, Id>, int> window;
  for (const auto& e : events) {
    switch (e.type) {
      case EventType::kRpcTimeout:
        ++timeout_events;
        ++window[{e.node, e.peer}];
        break;
      case EventType::kSuspect:
        // Suspicion is only declared once the strike threshold is hit:
        // the trace itself must show enough preceding timeouts.
        EXPECT_GE((window[{e.node, e.peer}]), kSuspectAfterStrikes)
            << e.node << " suspected " << e.peer << " early at t=" << e.time;
        break;
      case EventType::kAbsolve:
        window[{e.node, e.peer}] = 0;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(timeout_events, 0u) << "20% loss should time out some RPCs";
  EXPECT_EQ(timeout_events, reg.value("rpc.timeouts"));

  // The split HostBus drop counters agree with the registry and with
  // each other: only loss drops here, nobody has crashed.
  EXPECT_GT(fx.bus.loss_drops(), 0u);
  EXPECT_EQ(reg.value("bus.drops.loss"), fx.bus.loss_drops());
  EXPECT_EQ(fx.bus.detached_drops(), 0u);

  // Crash a member and keep running: its peers' datagrams now land on a
  // detached host and must be counted on the other ledger.
  fx.bus.set_loss(0, 99);
  fx.overlay.crash(fx.overlay.members_sorted()[0]);
  fx.overlay.run_for(10'000);
  EXPECT_GT(fx.bus.detached_drops(), 0u);
  EXPECT_EQ(reg.value("bus.drops.detached"), fx.bus.detached_drops());
}

TEST(TelemetryIntegration, SeenStreamsEvictAfterHorizon) {
  AsyncConfig cfg;
  cfg.stream_seen_ttl_ms = 5'000;
  Fixture<AsyncCamChordNet> fx(cfg);
  fx.grow(15);

  Id source = fx.overlay.members_sorted()[0];
  MulticastTree tree = fx.overlay.multicast(source);
  ASSERT_EQ(tree.size(), fx.overlay.size());

  std::size_t remembered = 0;
  for (Id id : fx.overlay.members_sorted()) {
    remembered += fx.overlay.node(id).seen_stream_count();
  }
  EXPECT_EQ(remembered, tree.size())
      << "every reached node should remember the stream right after";

  // Past the horizon the stabilize sweep forgets the stream everywhere.
  fx.overlay.run_for(cfg.stream_seen_ttl_ms + 5'000);
  for (Id id : fx.overlay.members_sorted()) {
    EXPECT_EQ(fx.overlay.node(id).seen_stream_count(), 0u) << "node " << id;
  }
}

TEST(TelemetryIntegration, KoordeFloodTracesDupSuppression) {
  telemetry::Registry reg;  // sinks outlive the fixture's overlay
  telemetry::Tracer tracer(1 << 16, telemetry::kMilestoneEvents);
  Fixture<AsyncCamKoordeNet> fx;
  fx.grow(25);

  fx.overlay.set_telemetry({&reg, &tracer});

  Id source = fx.overlay.members_sorted()[1];
  MulticastTree tree = fx.overlay.multicast(source);
  ASSERT_EQ(tree.size(), fx.overlay.size());

  std::uint64_t stream = fx.overlay.last_stream_id();
  std::size_t suppress_events = 0;
  for (const auto& e : tracer.events()) {
    if (e.type == EventType::kDupSuppress && e.a == stream) {
      ++suppress_events;
    }
  }
  // Flooding the de Bruijn graph produces redundant copies; each one is
  // caught either on arrival (dedupe) or before sending (dup-check), and
  // both paths trace. The registry splits them by mechanism.
  EXPECT_GT(suppress_events, 0u);
  EXPECT_EQ(suppress_events, reg.value("mc.dup_suppressed") +
                                 reg.value("mc.dupcheck_suppressed"));

  // Still exactly one delivery per member despite the redundancy.
  auto replayed = telemetry::replay_multicast(tracer.events(), stream);
  EXPECT_EQ(replayed.size(), tree.size());
}

}  // namespace
}  // namespace cam::proto
