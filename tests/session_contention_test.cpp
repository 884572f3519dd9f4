// Multi-group contention tests: two groups forced through the same
// hotspot relay (one shared source uplink serving both trees).
//
//   * kShared really contends: the light group's deliveries are
//     measurably delayed by the heavy group's burst versus a solo run.
//   * kLedgerShares really isolates: the uncongested group's per-group
//     stats are BIT-identical to its solo run under the same ledger —
//     the other group's queue depth never leaks into its schedule.
//   * Admission control is per group: only the congested group's source
//     pauses; the other group never stalls (ISSUE 7 satellite).
//   * A pruned link drains in both disciplines: the copies its parent
//     queued before detection are sent and lost at the dead child.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "session/multi_forwarder.h"
#include "session/session.h"
#include "strategy/strategy.h"
#include "workload/population.h"

namespace cam {
namespace {

using session::FailoverScript;
using session::GroupRunStats;
using session::GroupTraffic;
using session::JoinOutcome;
using session::MultiGroupConfig;
using session::MultiGroupForwarder;
using session::MultiGroupStats;
using session::SchedMode;
using session::SessionLayer;

// Both groups rooted at ids[0] with the same membership: every copy of
// either group crosses ids[0]'s single uplink, the hotspot.
struct World {
  FrozenDirectory dir;
  std::unique_ptr<SessionLayer> layer;

  static FrozenDirectory make_world(std::uint64_t seed) {
    workload::PopulationSpec spec;
    spec.n = 16;
    spec.ring_bits = 12;
    spec.seed = seed;
    // Fixed uplinks: the share arithmetic below stays predictable, so
    // the admission test can place its watermarks between the two
    // groups' backlog regimes with confidence.
    spec.bw_lo_kbps = 1000;
    spec.bw_hi_kbps = 1000;
    return workload::uniform_capacity_population(spec, 16, 16).freeze();
  }

  explicit World(std::uint64_t seed, std::size_t g2_members = 8)
      : dir(make_world(seed)) {
    layer = std::make_unique<SessionLayer>(dir, strategy::registry().make("camchord"));
    const std::vector<Id>& ids = dir.ids();
    EXPECT_TRUE(layer->create_group(1, ids[0]));
    EXPECT_TRUE(layer->create_group(2, ids[0]));
    for (std::size_t i = 1; i <= 8; ++i) {
      EXPECT_EQ(layer->join(1, ids[i]).outcome, JoinOutcome::kJoined);
      if (i <= g2_members) {
        EXPECT_EQ(layer->join(2, ids[i]).outcome, JoinOutcome::kJoined);
      }
    }
    EXPECT_TRUE(layer->check().empty());
  }
};

GroupTraffic heavy() {
  GroupTraffic t;
  t.group = 1;
  t.num_packets = 64;  // back-to-back burst: saturates the hotspot
  return t;
}

GroupTraffic light() {
  GroupTraffic t;
  t.group = 2;
  t.num_packets = 8;
  t.source_rate_kbps = 200;  // paced, nowhere near its share
  return t;
}

void expect_same_group_stats(const GroupRunStats& a,
                             const GroupRunStats& b) {
  EXPECT_EQ(a.group, b.group);
  // Exact doubles on purpose: "bit-identical", not "close".
  EXPECT_EQ(a.session.session_rate_kbps, b.session.session_rate_kbps);
  EXPECT_EQ(a.session.completion_ms, b.session.completion_ms);
  EXPECT_EQ(a.session.mean_rate_kbps, b.session.mean_rate_kbps);
  EXPECT_EQ(a.session.max_first_packet_ms, b.session.max_first_packet_ms);
  EXPECT_EQ(a.session.receivers, b.session.receivers);
  EXPECT_EQ(a.packets_emitted, b.packets_emitted);
  EXPECT_EQ(a.copies_delivered, b.copies_delivered);
  EXPECT_EQ(a.copies_expected, b.copies_expected);
  EXPECT_EQ(a.duplicate_deliveries, b.duplicate_deliveries);
  EXPECT_EQ(a.admission_pauses, b.admission_pauses);
  EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
}

TEST(SessionContention, SharedUplinkReallyContends) {
  const World w(21);
  const ConstantLatency latency(5.0);
  const MultiGroupConfig cfg{SchedMode::kShared};

  const MultiGroupStats solo =
      MultiGroupForwarder(*w.layer, latency, cfg).run({light()});
  const MultiGroupStats both =
      MultiGroupForwarder(*w.layer, latency, cfg).run({heavy(), light()});
  ASSERT_EQ(solo.groups.size(), 1u);
  ASSERT_EQ(both.groups.size(), 2u);

  const GroupRunStats& solo2 = solo.groups[0];
  const GroupRunStats& with2 = both.groups[1];
  ASSERT_EQ(with2.group, 2u);
  // Same payload delivered either way (FIFO delays, it never drops)...
  EXPECT_EQ(with2.copies_delivered, solo2.copies_delivered);
  EXPECT_EQ(with2.duplicate_deliveries, 0u);
  // ...but the heavy group's burst in the shared FIFO visibly delays
  // the light group versus running alone.
  EXPECT_GT(with2.session.completion_ms, solo2.session.completion_ms);
  EXPECT_GT(with2.mean_latency_ms, solo2.mean_latency_ms);
}

TEST(SessionContention, LedgerSharesIsolateTheUncongestedGroup) {
  const World w(22);
  const ConstantLatency latency(5.0);
  const MultiGroupConfig cfg{SchedMode::kLedgerShares};

  const MultiGroupStats solo =
      MultiGroupForwarder(*w.layer, latency, cfg).run({light()});
  const MultiGroupStats both =
      MultiGroupForwarder(*w.layer, latency, cfg).run({heavy(), light()});
  ASSERT_EQ(both.groups.size(), 2u);
  ASSERT_EQ(both.groups[1].group, 2u);

  // The uncongested group cannot tell the heavy group exists: its whole
  // scoreboard matches the solo run bit for bit.
  expect_same_group_stats(both.groups[1], solo.groups[0]);

  // Sanity: the heavy group did queue (this was a real contention run,
  // not two idle groups agreeing trivially).
  EXPECT_GT(both.max_backlog_ms, 0.0);
  EXPECT_GT(both.groups[0].copies_delivered, 0u);
}

TEST(SessionContention, AdmissionPausesArePerGroup) {
  // Group 2 is a single source->child link paced far below its ledger
  // share: its transient backlog is one 10-kbit packet against at least
  // 1000/9 kbps (worst case: group 1 holds eight slots at the source),
  // i.e. under ~90 ms. Group 1 bursts 64 packets back-to-back, piling
  // seconds of backlog. Watermarks at 120/40 ms separate the regimes.
  const World w(23, 1);
  const ConstantLatency latency(5.0);
  MultiGroupConfig cfg{SchedMode::kLedgerShares};
  cfg.admission_high_ms = 120.0;
  cfg.admission_low_ms = 40.0;

  GroupTraffic paced = light();
  paced.num_packets = 8;
  paced.source_rate_kbps = 40;  // one packet per 250 ms

  const MultiGroupStats both =
      MultiGroupForwarder(*w.layer, latency, cfg).run({heavy(), paced});
  ASSERT_EQ(both.groups.size(), 2u);
  const GroupRunStats& g1 = both.groups[0];
  const GroupRunStats& g2 = both.groups[1];

  // The burst group trips its watermark and pauses...
  EXPECT_GT(g1.admission_pauses, 0u);
  EXPECT_GT(g1.admission_paused_ms, 0.0);
  // ...while the paced group never stalls: pauses are per group, not a
  // global emergency brake.
  EXPECT_EQ(g2.admission_pauses, 0u);
  EXPECT_EQ(g2.admission_paused_ms, 0.0);

  // Pausing is flow control, not loss: everything still arrives once.
  EXPECT_EQ(g1.copies_delivered, g1.copies_expected);
  EXPECT_EQ(g2.copies_delivered, g2.copies_expected);
  EXPECT_EQ(g1.duplicate_deliveries + g2.duplicate_deliveries, 0u);
}

// Regression: under kLedgerShares a prune used to strand the copies
// already queued on the pruned link, because a per-group transmitter
// served only its member's live links. The run then ended with packets
// still in the pool (an assert in builds with assertions) and the
// stranded copies counted nowhere. Here the heavy group's whole burst
// is queued toward the victim when it dies: every one of those copies
// must be sent and lost at the dead child, as under kShared, and the
// orphans' reattach must still close the ledger.
TEST(SessionContention, PrunedLinkDrainsInBothDisciplines) {
  const World w(24);
  const session::GroupTree& g1 = *w.layer->group(1);
  const Id source = g1.source();
  Id victim = 0;
  std::size_t most = 0;
  for (Id c : g1.member(source).children) {
    if (g1.member(c).children.size() > most) {
      victim = c;
      most = g1.member(c).children.size();
    }
  }
  ASSERT_GT(most, 0u) << "the source needs an interior child";

  // Back-to-back packets are all queued at t = 0 and none can arrive
  // within 1 ms, so the victim dies holding nothing and owed 64 copies.
  FailoverScript script;
  script.crashes.push_back({1.0, victim});
  script.prunes.push_back({2.0, 1, source, victim});
  for (Id orphan : g1.member(victim).children) {
    script.prunes.push_back({2.0, 1, victim, orphan});
    script.reattaches.push_back({50.0, 1, orphan, source});
  }

  const ConstantLatency latency(5.0);
  for (SchedMode mode : {SchedMode::kShared, SchedMode::kLedgerShares}) {
    const MultiGroupStats s = MultiGroupForwarder(*w.layer, latency,
                                                  MultiGroupConfig{mode})
                                  .run({heavy()}, script);
    ASSERT_EQ(s.groups.size(), 1u);
    const GroupRunStats& g = s.groups[0];
    EXPECT_EQ(g.copies_lost, heavy().num_packets)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(g.reattaches, most);
    EXPECT_GT(g.repaired_copies, 0u);
    EXPECT_EQ(g.duplicate_deliveries, 0u);
    EXPECT_EQ(g.copies_delivered, g.copies_expected);
  }
}

}  // namespace
}  // namespace cam
