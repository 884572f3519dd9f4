// Detection-driven fast failover (ISSUE 8): the phi-accrual-lite
// FailureDetector and its deterministic heartbeat timetable, the
// DepthFeed -> detector observer wiring, soft standby reservations in
// the CapacityLedger, standby re-hangs and graceful degradation in the
// SessionLayer, the PR 7 self-adoption regression, and the detection
// mode of the session chaos harness — including byte-identity of
// detector-off runs against the goldens that predate detection, and of
// detection-mode runs against their own goldens.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/session_chaos.h"
#include "overlay/directory.h"
#include "proto/depth_feed.h"
#include "proto/host_bus.h"
#include "session/failover.h"
#include "session/ledger.h"
#include "session/session.h"
#include "strategy/strategy.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/population.h"

namespace cam {
namespace {

using session::CapacityLedger;
using session::kDetectorFloorMs;
using session::FailoverPolicy;
using session::FailureDetector;
using session::GroupId;
using session::HeartbeatSchedule;
using session::JoinOutcome;
using session::ReattachRecord;
using session::SessionLayer;
using session::kNoParent;

// --- FailureDetector -----------------------------------------------------

TEST(FailureDetector, FreshEdgeSeedsAnExpectedPeriodWindow) {
  FailureDetector det;  // period 2, k = 4, strikes = 2
  det.track(7, 9, 100.0);
  EXPECT_TRUE(det.tracks(7, 9));
  EXPECT_EQ(det.tracked_edges(), 1u);
  // mean = 2, dev = 0.5 -> timeout = 2 + 4 * 0.5 = 4; two strikes.
  EXPECT_DOUBLE_EQ(det.timeout_ms(7, 9), 4.0);
  EXPECT_DOUBLE_EQ(det.suspect_deadline(7, 9), 108.0);
  // Re-tracking is a no-op (statistics survive).
  det.heartbeat(7, 9, 102.0);
  const double t = det.timeout_ms(7, 9);
  det.track(7, 9, 500.0);
  EXPECT_DOUBLE_EQ(det.timeout_ms(7, 9), t);
  det.untrack(7, 9);
  EXPECT_FALSE(det.tracks(7, 9));
  EXPECT_EQ(det.tracked_edges(), 0u);
  EXPECT_DOUBLE_EQ(det.suspect_deadline(7, 9), 0.0);
}

TEST(FailureDetector, SteadyHeartbeatsTightenTheAdaptiveWindow) {
  FailureDetector det;
  det.track(1, 2, 0.0);
  const double fresh = det.timeout_ms(1, 2);
  for (int i = 1; i <= 64; ++i) {
    det.heartbeat(1, 2, 2.0 * i);  // metronome-exact period
  }
  // The EWMA converges to the true period and the deviation decays, so
  // the window shrinks toward the mean (never below the floor).
  EXPECT_LT(det.timeout_ms(1, 2), fresh);
  EXPECT_GE(det.timeout_ms(1, 2), 2.0);
  EXPECT_GE(det.timeout_ms(1, 2), kDetectorFloorMs);
  // Jittery arrivals widen it again.
  FailureDetector jittery;
  jittery.track(1, 2, 0.0);
  double now = 0;
  for (int i = 1; i <= 64; ++i) {
    now += (i % 2 == 0) ? 0.5 : 3.5;  // same mean, high deviation
    jittery.heartbeat(1, 2, now);
  }
  EXPECT_GT(jittery.timeout_ms(1, 2), det.timeout_ms(1, 2));
}

TEST(FailureDetector, SweepLatchesUntilAHeartbeatAbsolves) {
  FailureDetector det;
  det.track(1, 2, 0.0);
  det.track(3, 2, 0.0);
  det.heartbeat(1, 2, 2.0);
  det.heartbeat(3, 2, 2.0);

  EXPECT_TRUE(det.sweep(4.0).empty());  // windows still open

  const SimTime d12 = det.suspect_deadline(1, 2);
  const std::vector<FailureDetector::Suspicion> s = det.sweep(1000.0);
  ASSERT_EQ(s.size(), 2u);  // sorted (watcher, peer)
  EXPECT_EQ(s[0].watcher, 1u);
  EXPECT_EQ(s[1].watcher, 3u);
  EXPECT_DOUBLE_EQ(s[0].deadline_ms, d12);
  // Latched: the same silence is not re-reported.
  EXPECT_TRUE(det.sweep(2000.0).empty());
  // A heartbeat absolves and re-arms the edge.
  det.heartbeat(1, 2, 2000.0);
  EXPECT_TRUE(det.sweep(2000.5).empty());
  const std::vector<FailureDetector::Suspicion> again = det.sweep(9000.0);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].watcher, 1u);
}

TEST(FailureDetector, IdenticalFeedsYieldIdenticalDeadlines) {
  FailureDetector a, b;
  const HeartbeatSchedule sched(11, 2.0);
  a.track(5, 6, 10.0);
  b.track(5, 6, 10.0);
  for (std::uint64_t i = 0; i < 32; ++i) {
    const SimTime at = 10.0 + sched.arrival_offset(5, 6, i);
    a.heartbeat(5, 6, at);
    b.heartbeat(5, 6, at);
  }
  EXPECT_DOUBLE_EQ(a.suspect_deadline(5, 6), b.suspect_deadline(5, 6));
  EXPECT_DOUBLE_EQ(a.timeout_ms(5, 6), b.timeout_ms(5, 6));
}

TEST(HeartbeatSchedule, ArrivalsAreMonotonicJitteredAndSeedStable) {
  const HeartbeatSchedule sched(42, 2.0, 0.5);
  SimTime prev = 0;
  bool jittered = false;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const SimTime at = sched.arrival_offset(3, 4, i);
    EXPECT_GT(at, prev);  // jitter < period keeps the stream ordered
    // Every arrival stays within half a period of its metronome slot.
    const SimTime nominal = 2.0 * static_cast<double>(i + 1);
    EXPECT_LT(std::abs(at - nominal), 1.0);
    if (std::abs(at - nominal) > 1e-6) jittered = true;
    prev = at;
  }
  EXPECT_TRUE(jittered);
  // Pure function of (seed, edge, index): same inputs, same instant;
  // different edges and seeds de-correlate.
  const HeartbeatSchedule same(42, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(sched.arrival_offset(3, 4, 17),
                   same.arrival_offset(3, 4, 17));
  EXPECT_NE(sched.arrival_offset(3, 4, 17), sched.arrival_offset(4, 3, 17));
  const HeartbeatSchedule other(43, 2.0, 0.5);
  EXPECT_NE(sched.arrival_offset(3, 4, 17), other.arrival_offset(3, 4, 17));
}

// --- DepthFeed -> detector wiring ---------------------------------------

TEST(DepthFeedObserver, DeliveredHeartbeatsFeedTheDetector) {
  // The detector hangs off the PR 7 piggyback channel: every DELIVERED
  // child -> parent heartbeat datagram is the parent's aliveness
  // evidence, stamped with the bus's delivery time (latency included).
  Simulator sim;
  const ConstantLatency latency(5.0);
  Network net(sim, latency);
  proto::HostBus bus(net);
  proto::DepthFeed feed(bus);
  const Id child = 3, parent = 8;
  feed.register_edge(child, parent);

  FailureDetector det;
  det.track(parent, child, 0.0);
  feed.set_heartbeat_observer(&det);

  const dataplane::DepthFeedHooks hooks = feed.hooks();
  ASSERT_TRUE(static_cast<bool>(hooks));
  const SimTime before = det.suspect_deadline(parent, child);
  hooks.publish(child, 1.25, sim.now());
  sim.run_until(100.0);
  EXPECT_GT(feed.heartbeats_sent(), 0u);
  // The heartbeat landed at send + latency and advanced the edge clock.
  EXPECT_GT(det.suspect_deadline(parent, child), before);
  EXPECT_TRUE(det.sweep(before).empty());

  // Detached observer: later heartbeats no longer touch the detector.
  feed.set_heartbeat_observer(nullptr);
  const SimTime after = det.suspect_deadline(parent, child);
  hooks.publish(child, 1.25, sim.now());
  sim.run_until(200.0);
  EXPECT_DOUBLE_EQ(det.suspect_deadline(parent, child), after);
}

// --- CapacityLedger soft reservations ------------------------------------

FrozenDirectory tiny_world(std::size_t n, std::uint64_t seed) {
  workload::PopulationSpec spec;
  spec.n = n;
  spec.ring_bits = 12;
  spec.seed = seed;
  return workload::uniform_capacity_population(spec, 4, 10).freeze();
}

TEST(CapacityLedger, ReservationsAreSoftAndNeverBlockAdmission) {
  const FrozenDirectory dir = tiny_world(8, 21);
  CapacityLedger ledger(dir);
  const Id x = dir.ids()[2];
  const std::uint32_t cap = ledger.capacity(x);
  ASSERT_GE(cap, 4u);

  ledger.reserve(x, 1);
  ledger.reserve(x, 1);
  ledger.reserve(x, 2);
  EXPECT_EQ(ledger.reserved(x), 3u);
  EXPECT_EQ(ledger.reserved(x, 1), 2u);
  EXPECT_EQ(ledger.reserved(x, 2), 1u);
  EXPECT_EQ(ledger.unreserved_headroom(x), cap - 3);

  // Soft: real debits ignore reservations entirely and may consume the
  // reserved headroom — admission is never refused on a standby's
  // behalf.
  for (std::uint32_t i = 0; i < cap; ++i) {
    EXPECT_TRUE(ledger.debit(x, 9));
  }
  EXPECT_EQ(ledger.available(x), 0u);
  EXPECT_EQ(ledger.reserved(x), 3u);  // claims survive, now unbacked
  EXPECT_EQ(ledger.unreserved_headroom(x), 0u);  // floored, not negative

  ledger.unreserve(x, 1);
  ledger.unreserve(x, 1);
  ledger.unreserve(x, 2);
  EXPECT_EQ(ledger.reserved(x), 0u);
  EXPECT_EQ(ledger.reserved(x, 1), 0u);
}

// --- SessionLayer: standby failover --------------------------------------

/// Hand-built four-node world on an 8-bit ring. Capacities are chosen
/// per test; bandwidth is flat (irrelevant to placement).
FrozenDirectory hand_world(const std::vector<std::pair<Id, std::uint32_t>>&
                               nodes) {
  NodeDirectory dir(RingSpace(8));
  for (const auto& [id, cap] : nodes) {
    EXPECT_TRUE(dir.add(id, NodeInfo{cap, 1000.0}));
  }
  return dir.freeze();
}

TEST(SessionFailover, ParentDeathRehangsOntoThePrecomputedStandby) {
  // S(10, cap 2) fills with A(100) and B(150); c(175) must then land
  // under A or B, and its join records the OTHER one as standby — the
  // next feasible candidate on the same join-time path.
  const FrozenDirectory dir =
      hand_world({{10, 2}, {100, 2}, {150, 2}, {175, 2}});
  SessionLayer layer(dir, strategy::registry().make("camchord"));
  layer.set_failover_policy(FailoverPolicy{true, true});

  const GroupId g = 1;
  ASSERT_TRUE(layer.create_group(g, 10));
  ASSERT_EQ(layer.join(g, 100).parent, 10u);
  ASSERT_EQ(layer.join(g, 150).parent, 10u);  // S is full now
  const session::JoinResult jc = layer.join(g, 175);
  ASSERT_EQ(jc.outcome, JoinOutcome::kJoined);
  const Id parent = jc.parent;
  ASSERT_TRUE(parent == 100u || parent == 150u) << parent;

  const Id standby = layer.standby_of(g, 175);
  ASSERT_NE(standby, kNoParent);
  ASSERT_NE(standby, parent);  // a standby is never the current parent
  // The standby holds a soft reservation against its shared uplink.
  EXPECT_GE(layer.ledger().reserved(standby, g), 1u);

  layer.fail_node(parent);
  EXPECT_FALSE(layer.group(g)->contains(parent));
  EXPECT_EQ(layer.group(g)->member(175).parent, standby);
  // The refreshed standby must never be the node that just died, even
  // though its freshly credited slots make it look attractive mid-
  // removal.
  EXPECT_NE(layer.standby_of(g, 175), parent);
  EXPECT_EQ(layer.counters().reattach_standby, 1u);
  EXPECT_EQ(layer.counters().reattach_full, 0u);
  EXPECT_EQ(layer.counters().reparented_fail, 1u);
  EXPECT_EQ(layer.counters().reparented_leave, 0u);
  EXPECT_EQ(layer.counters().dropped_members, 0u);

  const std::vector<ReattachRecord> log = layer.take_failover_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].how, ReattachRecord::How::kStandby);
  EXPECT_EQ(log[0].child, 175u);
  EXPECT_EQ(log[0].parent, standby);
  EXPECT_EQ(log[0].lookup_hops, 0u);  // O(1): no locating lookup
  EXPECT_TRUE(layer.take_failover_log().empty());  // drained

  EXPECT_TRUE(layer.check().empty()) << layer.check()[0];
}

TEST(SessionFailover, GracefulLeavesDoNotTouchFailureCounters) {
  const FrozenDirectory dir =
      hand_world({{10, 2}, {100, 2}, {150, 2}, {175, 2}});
  SessionLayer layer(dir, strategy::registry().make("camchord"));
  layer.set_failover_policy(FailoverPolicy{true, true});
  const GroupId g = 1;
  ASSERT_TRUE(layer.create_group(g, 10));
  ASSERT_EQ(layer.join(g, 100).parent, 10u);
  ASSERT_EQ(layer.join(g, 150).parent, 10u);
  const Id parent = layer.join(g, 175).parent;
  ASSERT_TRUE(parent == 100u || parent == 150u) << parent;

  ASSERT_TRUE(layer.leave(g, parent));
  // The orphan re-hung, but as a LEAVE: the failover split stays clean.
  EXPECT_EQ(layer.counters().reparented, 1u);
  EXPECT_EQ(layer.counters().reparented_leave, 1u);
  EXPECT_EQ(layer.counters().reparented_fail, 0u);
  EXPECT_EQ(layer.counters().reattach_standby, 0u);
  EXPECT_EQ(layer.counters().reattach_full, 0u);
  EXPECT_TRUE(layer.take_failover_log().empty());
  EXPECT_TRUE(layer.check().empty());
}

// --- SessionLayer: graceful degradation ----------------------------------

TEST(SessionFailover, ZeroSlackParksThrottlesAndReadmitsDeterministically) {
  // Group 1: S(10) <- {A(100), B(150)}, A <- {C(101), D(102)} — every
  // node cap 2. Six singleton filler groups share the ledger and soak
  // up ALL remaining slack of B, C and D (a group's first join always
  // lands on the source, so each filler debits exactly the node it
  // targets; the lone filler member 60 never joins group 1, so it is
  // never a placement candidate there). When A dies its slot at S
  // credits back: orphan C (smaller id, first) takes the only feasible
  // slot by full placement; orphan D then finds zero slack anywhere in
  // group 1 — S, B, C all saturated — and parks instead of dropping.
  const FrozenDirectory dir = hand_world(
      {{10, 2}, {100, 2}, {150, 2}, {101, 2}, {102, 2}, {60, 2}});
  SessionLayer layer(dir, strategy::registry().make("camchord"));
  layer.set_failover_policy(FailoverPolicy{true, true});

  const GroupId g = 1;
  ASSERT_TRUE(layer.create_group(g, 10));
  ASSERT_EQ(layer.join(g, 100).parent, 10u);
  ASSERT_EQ(layer.join(g, 150).parent, 10u);   // S full
  ASSERT_EQ(layer.join(g, 101).parent, 100u);  // only A has slack left
  ASSERT_EQ(layer.join(g, 102).parent, 100u);  // A full
  const std::vector<Id> filler_srcs = {150, 150, 101, 101, 102, 102};
  for (std::size_t i = 0; i < filler_srcs.size(); ++i) {
    const GroupId fg = static_cast<GroupId>(2 + i);
    ASSERT_TRUE(layer.create_group(fg, filler_srcs[i]));
    ASSERT_EQ(layer.join(fg, 60).parent, filler_srcs[i]);
  }

  layer.fail_node(100);
  // C re-hung into the slot A's death freed at S (its standby, if any,
  // was saturated by the filler group — soft reservations don't hold
  // slots, so the fast path re-validates and falls through).
  EXPECT_EQ(layer.group(g)->member(101).parent, 10u);
  EXPECT_EQ(layer.counters().reattach_full, 1u);
  // D found a group with zero slack: parked, not dropped.
  EXPECT_TRUE(layer.is_parked(g, 102));
  EXPECT_FALSE(layer.group(g)->contains(102));
  EXPECT_EQ(layer.parked_count(g), 1u);
  EXPECT_EQ(layer.parked_member_count(g), 1u);
  EXPECT_EQ(layer.total_parked_members(), 1u);
  EXPECT_EQ(layer.counters().parked_subtrees, 1u);
  EXPECT_EQ(layer.counters().dropped_members, 0u);  // degraded, not lost
  // Source throttle: 3 attached (S, B, C) serve while 1 waits -> 3/4.
  EXPECT_DOUBLE_EQ(layer.throttle(g), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(layer.throttle(2), 1.0);  // degradation is per-group

  {
    const std::vector<ReattachRecord> log = layer.take_failover_log();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].how, ReattachRecord::How::kPlacement);
    EXPECT_EQ(log[0].child, 101u);
    EXPECT_EQ(log[0].parent, 10u);
    EXPECT_EQ(log[1].how, ReattachRecord::How::kParked);
    EXPECT_EQ(log[1].child, 102u);
    EXPECT_EQ(log[1].members, 1u);
  }
  EXPECT_TRUE(layer.check().empty()) << layer.check()[0];

  // C leaves group 1: S's slot frees and the parked subtree re-admits
  // at once — FIFO, no oracle nudge needed — and the throttle releases.
  ASSERT_TRUE(layer.leave(g, 101));
  EXPECT_FALSE(layer.is_parked(g, 102));
  EXPECT_TRUE(layer.group(g)->contains(102));
  EXPECT_EQ(layer.group(g)->member(102).parent, 10u);
  EXPECT_EQ(layer.counters().readmitted_subtrees, 1u);
  EXPECT_EQ(layer.counters().dropped_members, 0u);
  EXPECT_DOUBLE_EQ(layer.throttle(g), 1.0);
  EXPECT_EQ(layer.total_parked_members(), 0u);

  const std::vector<ReattachRecord> log = layer.take_failover_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].how, ReattachRecord::How::kReadmitted);
  EXPECT_EQ(log[0].child, 102u);
  EXPECT_EQ(log[0].parent, 10u);
  EXPECT_TRUE(layer.check().empty()) << layer.check()[0];
}

// --- PR 7 regression: a departing node must never adopt its orphans -----

TEST(SessionFailover, DepartingNodeNeverAdoptsItsOwnOrphans) {
  // c(99)'s locating owner is N(100), so c hangs under N. When N goes,
  // N is still a tree member while its orphans are re-placed; PR 7's
  // placement could pick N itself (it had slack), leaving c attached to
  // a node that was being removed. Pin both the leave and crash paths.
  for (const bool crash : {false, true}) {
    const FrozenDirectory dir =
        hand_world({{10, 2}, {100, 2}, {200, 2}, {99, 2}});
    SessionLayer layer(dir, strategy::registry().make("camchord"));
    const GroupId g = 1;
    ASSERT_TRUE(layer.create_group(g, 10));
    ASSERT_EQ(layer.join(g, 100).parent, 10u);
    ASSERT_EQ(layer.join(g, 200).parent, 10u);  // S full before c joins
    ASSERT_EQ(layer.join(g, 99).parent, 100u) << "premise: c under N";

    if (crash) {
      layer.fail_node(100);
    } else {
      ASSERT_TRUE(layer.leave(g, 100));
    }
    ASSERT_TRUE(layer.group(g)->contains(99));
    EXPECT_FALSE(layer.group(g)->contains(100));
    EXPECT_NE(layer.group(g)->member(99).parent, 100u)
        << "orphan adopted by the departing node";
    EXPECT_TRUE(layer.check().empty()) << layer.check()[0];
  }
}

// --- Detection-mode chaos harness ----------------------------------------

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(CAM_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(SessionFailover, DetectorOffRunsAreByteIdenticalToPR7Goldens) {
  // FailoverPolicy defaults off and cfg.detect defaults off: the whole
  // detection/standby/parking machinery must be invisible — same
  // placement walk, same counters, same report bytes as before ISSUE 8.
  const workload::WorkloadPlan plan = fault::default_session_workload();
  {
    fault::SessionChaosConfig cfg;
    cfg.system = "camchord";
    cfg.seed = 4;
    EXPECT_EQ(fault::run_session_chaos(cfg, plan).render(),
              read_golden("session_chaos_detoff_camchord_seed4.txt"));
  }
  {
    fault::SessionChaosConfig cfg;
    cfg.system = "camkoorde";
    cfg.seed = 8;
    cfg.mode = session::SchedMode::kLedgerShares;
    EXPECT_EQ(fault::run_session_chaos(cfg, plan).render(),
              read_golden("session_chaos_detoff_camkoorde_seed8.txt"));
  }
}

TEST(SessionFailover, DetectionModeRunsAreByteIdenticalToGoldens) {
  // The detector-off configs with detection and a mid-stream crash on:
  // pins the detector's EWMA/threshold constants, the heartbeat
  // schedule, and the harness's reattach pricing across commits.
  const workload::WorkloadPlan plan = fault::default_session_workload();
  std::size_t detected = 0, standby = 0, reattaches = 0;
  {
    fault::SessionChaosConfig cfg;
    cfg.system = "camchord";
    cfg.seed = 4;
    cfg.detect = true;
    cfg.stream_crash = true;
    const fault::SessionChaosReport r = fault::run_session_chaos(cfg, plan);
    EXPECT_EQ(r.render(),
              read_golden("session_chaos_detect_camchord_seed4.txt"));
    detected += r.detected_crashes;
    standby += r.counters.reattach_standby;
    reattaches += r.stream_reattaches;
  }
  {
    fault::SessionChaosConfig cfg;
    cfg.system = "camkoorde";
    cfg.seed = 8;
    cfg.mode = session::SchedMode::kLedgerShares;
    cfg.detect = true;
    cfg.stream_crash = true;
    const fault::SessionChaosReport r = fault::run_session_chaos(cfg, plan);
    EXPECT_EQ(r.render(),
              read_golden("session_chaos_detect_camkoorde_seed8.txt"));
    detected += r.detected_crashes;
    standby += r.counters.reattach_standby;
    reattaches += r.stream_reattaches;
  }
  // The pair exercises detection, standby re-hangs and stream failover.
  EXPECT_GT(detected, 0u);
  EXPECT_GT(standby, 0u);
  EXPECT_GT(reattaches, 0u);
}

std::vector<fault::SessionChaosCell> detect_grid(std::size_t seeds) {
  std::vector<fault::SessionChaosCell> cells;
  const workload::WorkloadPlan plan = fault::default_session_workload();
  for (std::size_t s = 1; s <= seeds; ++s) {
    for (const char* system : {"camchord", "camkoorde"}) {
      fault::SessionChaosCell cell;
      cell.cfg.system = system;
      cell.cfg.seed = s;
      cell.cfg.detect = true;
      cell.cfg.stream_crash = true;
      cell.plan = plan;
      cells.push_back(cell);
    }
  }
  return cells;
}

TEST(SessionFailover, DetectionModeSweepHoldsEveryInvariant) {
  // 32 seeds x 2 overlays, workload crashes discovered by the detector,
  // plus a detected mid-stream crash driving the dataplane's
  // FailoverScript. Every invariant of the oracle sweep must still
  // hold: consistent ledger/trees at every sweep point, exactly-once,
  // and delivery completeness under the failover-adjusted expectation.
  const std::vector<fault::SessionChaosCell> cells = detect_grid(32);
  ASSERT_EQ(cells.size(), 64u);
  const std::vector<fault::SessionChaosReport> reports =
      fault::run_session_chaos_cells(cells, 4);

  std::size_t detected = 0, standby_used = 0, stream_crashes = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const fault::SessionChaosReport& r = reports[i];
    EXPECT_TRUE(r.ok) << "cell " << i << " (" << cells[i].cfg.system
                      << " seed " << cells[i].cfg.seed << "):\n"
                      << r.render();
    EXPECT_EQ(r.dup_copies, 0u);
    EXPECT_EQ(r.copies_delivered, r.copies_expected);
    EXPECT_EQ(r.crash_victims, 3u);  // the stock regionfail burst
    EXPECT_LE(r.detected_crashes, r.crash_victims);
    detected += r.detected_crashes;
    standby_used += r.counters.reattach_standby;
    stream_crashes += r.stream_crashed ? 1 : 0;
    if (r.detected_crashes > 0) {
      // Detection is never instant: at least one adaptive strike
      // window of heartbeat silence elapses first.
      EXPECT_GT(r.detect_latency.min(), 0.0);
      EXPECT_EQ(r.detect_latency.count(), r.detected_crashes);
    }
  }
  // The sweep exercises the machinery, not just tolerates it.
  EXPECT_GT(detected, 0u);
  EXPECT_GT(standby_used, 0u);
  EXPECT_GT(stream_crashes, 0u);
}

TEST(SessionFailover, DetectionModeRendersByteIdentical) {
  fault::SessionChaosConfig cfg;
  cfg.system = "camchord";
  cfg.seed = 4;
  cfg.detect = true;
  cfg.stream_crash = true;
  const workload::WorkloadPlan plan = fault::default_session_workload();
  const std::string a = fault::run_session_chaos(cfg, plan).render();
  const std::string b = fault::run_session_chaos(cfg, plan).render();
  EXPECT_EQ(a, b);
  // The report carries the detection scoreboard.
  EXPECT_NE(a.find("failover:"), std::string::npos);
  EXPECT_NE(a.find("degraded:"), std::string::npos);
  EXPECT_NE(a.find("stream-failover:"), std::string::npos);
}

TEST(SessionFailover, MidStreamCrashRepairsTheGapExactlyOnce) {
  fault::SessionChaosConfig cfg;
  cfg.system = "camchord";
  cfg.seed = 4;
  cfg.detect = true;
  cfg.stream_crash = true;
  const fault::SessionChaosReport r =
      fault::run_session_chaos(cfg, fault::default_session_workload());
  ASSERT_TRUE(r.ok) << r.render();
  ASSERT_TRUE(r.stream_crashed);
  EXPECT_GT(r.stream_announce_ms, fault::kStreamCrashMs)
      << "detection must lag the crash";
  EXPECT_GT(r.stream_reattaches, 0u);
  EXPECT_EQ(r.dup_copies, 0u);
  EXPECT_EQ(r.copies_delivered, r.copies_expected)
      << "gap repair must close the ledger after failover";
}

}  // namespace
}  // namespace cam
