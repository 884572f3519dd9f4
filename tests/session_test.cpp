// Session-layer unit + identity tests: the CapacityLedger's shared-uplink
// accounting, GroupTree editing, capacity-aware join placement, and —
// the load-bearing one — single-group byte-identity: a session with one
// group streamed through the MultiGroupForwarder must reproduce the
// paper's FIFO plane bit for bit (in BOTH service disciplines; a sole
// ledger debtor owns the full uplink), pinned field-for-field against a
// FIFO-mode BackpressureForwarder and against a committed golden.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "session/apply.h"
#include "session/multi_forwarder.h"
#include "session/session.h"
#include "strategy/strategy.h"
#include "util/rng.h"
#include "workload/population.h"

namespace cam {
namespace {

using session::CapacityLedger;
using session::GroupId;
using session::GroupTree;
using session::JoinOutcome;
using session::SessionLayer;

FrozenDirectory small_world(std::size_t n, std::uint64_t seed,
                            std::uint32_t cap_lo = 4,
                            std::uint32_t cap_hi = 10) {
  workload::PopulationSpec spec;
  spec.n = n;
  spec.ring_bits = 12;
  spec.seed = seed;
  return workload::uniform_capacity_population(spec, cap_lo, cap_hi)
      .freeze();
}

// --- CapacityLedger ------------------------------------------------------

TEST(CapacityLedger, DebitsShareOneBudgetAcrossGroups) {
  const FrozenDirectory dir = small_world(16, 3);
  CapacityLedger ledger(dir);
  const Id x = dir.ids()[0];
  const std::uint32_t cap = ledger.capacity(x);
  ASSERT_GE(cap, 4u);

  // Fill the whole budget from two groups.
  for (std::uint32_t i = 0; i < cap; ++i) {
    EXPECT_TRUE(ledger.debit(x, i % 2 == 0 ? 1 : 2));
  }
  EXPECT_EQ(ledger.used(x), cap);
  EXPECT_EQ(ledger.available(x), 0u);
  // The budget is shared: group 3 cannot take a slot even though it
  // holds none yet.
  EXPECT_FALSE(ledger.debit(x, 3));
  EXPECT_EQ(ledger.used(x, 3), 0u);
  EXPECT_TRUE(ledger.oversubscribed().empty());
  EXPECT_DOUBLE_EQ(ledger.max_utilization(), 1.0);

  ledger.credit(x, 1, ledger.used(x, 1));
  EXPECT_TRUE(ledger.debit(x, 3));
  EXPECT_TRUE(ledger.oversubscribed().empty());
}

TEST(CapacityLedger, SoleDebtorOwnsTheFullUplink) {
  const FrozenDirectory dir = small_world(16, 4);
  CapacityLedger ledger(dir);
  const Id x = dir.ids()[5];
  const double bx = ledger.uplink_kbps(x);

  ASSERT_TRUE(ledger.debit(x, 7));
  ASSERT_TRUE(ledger.debit(x, 7));
  // Single group: the whole B_x regardless of slot count — this is what
  // keeps single-group sessions identical to the legacy plane.
  EXPECT_DOUBLE_EQ(ledger.share_kbps(x, 7), bx);

  ASSERT_TRUE(ledger.debit(x, 8));
  // Two debtors: proportional split, exact arithmetic.
  EXPECT_DOUBLE_EQ(ledger.share_kbps(x, 7), bx * 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ledger.share_kbps(x, 8), bx * 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(ledger.share_kbps(x, 9), 0.0);
}

// --- GroupTree -----------------------------------------------------------

TEST(GroupTree, EditsKeepStructureAndLedgerConsistent) {
  const FrozenDirectory dir = small_world(16, 5);
  CapacityLedger ledger(dir);
  const std::vector<Id>& ids = dir.ids();

  GroupTree tree(1, ids[0]);
  ASSERT_TRUE(ledger.debit(ids[0], 1));
  tree.add(ids[1], ids[0]);
  ASSERT_TRUE(ledger.debit(ids[0], 1));
  tree.add(ids[2], ids[0]);
  ASSERT_TRUE(ledger.debit(ids[1], 1));
  tree.add(ids[3], ids[1]);
  EXPECT_TRUE(tree.check(ledger).empty());

  EXPECT_EQ(tree.member(ids[3]).depth, 2);
  const std::vector<Id> sub = tree.subtree(ids[1]);
  EXPECT_EQ(sub, (std::vector<Id>{ids[1], ids[3]}));

  // Re-hang ids[1]'s subtree under ids[2]: depths recompute.
  ledger.credit(ids[0], 1);
  ASSERT_TRUE(ledger.debit(ids[2], 1));
  tree.set_parent(ids[1], ids[2]);
  EXPECT_EQ(tree.member(ids[1]).depth, 2);
  EXPECT_EQ(tree.member(ids[3]).depth, 3);
  EXPECT_TRUE(tree.check(ledger).empty());

  // A fanout/ledger mismatch is detected.
  ledger.credit(ids[2], 1);
  EXPECT_FALSE(tree.check(ledger).empty());
  ASSERT_TRUE(ledger.debit(ids[2], 1));
  EXPECT_TRUE(tree.check(ledger).empty());
}

// Reference for GroupTree's incremental member indexes: the member set
// and parent links kept apart from the tree, and the collect +
// std::sort + std::stable_sort the tree used to run on every call.
struct TreeModel {
  std::map<Id, Id> parent;  // member -> parent; the source maps to itself

  int depth(Id m) const {
    int d = 0;
    for (Id p = parent.at(m); p != m; m = p, p = parent.at(m)) ++d;
    return d;
  }
  bool in_subtree(Id n, Id anc) const {
    for (;; n = parent.at(n)) {
      if (n == anc) return true;
      if (parent.at(n) == n) return false;
    }
  }
  bool is_leaf(Id m) const {
    for (const auto& [c, p] : parent) {
      if (p == m && c != m) return false;
    }
    return true;
  }
  std::vector<Id> sorted_members() const {
    std::vector<Id> out;
    for (const auto& [m, p] : parent) out.push_back(m);
    std::sort(out.begin(), out.end());
    return out;
  }
  std::vector<Id> members_by_depth() const {
    std::vector<Id> out = sorted_members();
    std::stable_sort(out.begin(), out.end(),
                     [&](Id a, Id b) { return depth(a) < depth(b); });
    return out;
  }
};

TEST(GroupTree, IndexesMatchSortReferenceUnderRandomEdits) {
  // Capacity 64 everywhere: the ledger never refuses, so every edit the
  // walk picks is applied and check() can cross-examine the indexes.
  const FrozenDirectory dir = small_world(64, 9, 64, 64);
  const std::vector<Id>& ids = dir.ids();
  std::size_t deep_rehangs = 0;  // re-hangs moving children to a new depth
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    CapacityLedger ledger(dir);
    GroupTree tree(1, ids[0]);
    TreeModel model;
    model.parent[ids[0]] = ids[0];
    auto pick = [&](const std::vector<Id>& from) {
      return from[rng.next_below(from.size())];
    };
    for (int step = 0; step < 300; ++step) {
      const std::vector<Id> members = model.sorted_members();
      std::vector<Id> outside, leaves, movable;
      for (Id x : ids) {
        if (!model.parent.contains(x)) outside.push_back(x);
      }
      for (Id m : members) {
        if (m == ids[0]) continue;
        movable.push_back(m);
        if (model.is_leaf(m)) leaves.push_back(m);
      }
      const std::uint64_t op = rng.next_below(3);
      if ((op == 0 || movable.empty()) && !outside.empty()) {
        const Id node = pick(outside);
        const Id parent = pick(members);
        ASSERT_TRUE(ledger.debit(parent, 1));
        tree.add(node, parent);
        model.parent[node] = parent;
      } else if (op == 1 && !leaves.empty()) {
        const Id node = pick(leaves);
        ledger.credit(model.parent.at(node), 1);
        tree.erase_leaf(node);
        model.parent.erase(node);
      } else if (!movable.empty()) {
        const Id node = pick(movable);
        std::vector<Id> targets;
        for (Id m : members) {
          if (!model.in_subtree(m, node)) targets.push_back(m);
        }
        const Id parent = pick(targets);
        if (!model.is_leaf(node) &&
            model.depth(parent) + 1 != model.depth(node)) {
          ++deep_rehangs;
        }
        ledger.credit(model.parent.at(node), 1);
        ASSERT_TRUE(ledger.debit(parent, 1));
        tree.set_parent(node, parent);
        model.parent[node] = parent;
      }
      ASSERT_EQ(tree.sorted_members(), model.sorted_members())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(tree.members_by_depth(), model.members_by_depth())
          << "seed " << seed << " step " << step;
      for (Id m : tree.sorted_members()) {
        ASSERT_EQ(tree.member(m).depth, model.depth(m));
      }
      const std::vector<std::string> defects = tree.check(ledger);
      ASSERT_TRUE(defects.empty()) << defects.front();
    }
  }
  EXPECT_GT(deep_rehangs, 0u);
}

// --- SessionLayer --------------------------------------------------------

TEST(SessionLayer, LifecycleAndCapacityRejection) {
  // 8 nodes x capacity 4 = 32 shared slots. Each full 8-member group
  // debits 7 of them, so by the fifth group the ledger must start
  // rejecting joins rather than oversubscribe anyone.
  const FrozenDirectory dir = small_world(8, 6, 4, 4);
  SessionLayer layer(dir, strategy::registry().make("camchord"));
  const std::vector<Id>& ids = dir.ids();

  ASSERT_TRUE(layer.create_group(1, ids[0]));
  EXPECT_FALSE(layer.create_group(1, ids[1]));  // id taken

  std::size_t joined = 0, rejected = 0;
  for (GroupId g = 1; g <= 6; ++g) {
    if (g > 1) {
      ASSERT_TRUE(layer.create_group(g, ids[0]));
    }
    for (std::size_t i = 1; i < ids.size(); ++i) {
      const session::JoinResult r = layer.join(g, ids[i]);
      if (r.outcome == JoinOutcome::kJoined) ++joined;
      if (r.outcome == JoinOutcome::kNoCapacity) ++rejected;
    }
    ASSERT_TRUE(layer.check().empty()) << "after group " << g;
  }
  EXPECT_EQ(joined + rejected, 6u * (ids.size() - 1));
  EXPECT_GT(rejected, 0u);  // the shared budget really saturates
  EXPECT_EQ(layer.counters().joins_rejected, rejected);
  EXPECT_LE(layer.ledger().max_utilization(), 1.0);
  EXPECT_TRUE(layer.ledger().oversubscribed().empty());

  EXPECT_EQ(layer.join(1, ids[0]).outcome, JoinOutcome::kAlreadyMember);
  EXPECT_EQ(layer.join(99, ids[1]).outcome, JoinOutcome::kNoSuchGroup);
  EXPECT_EQ(layer.join(1, ~Id{0} - 1).outcome, JoinOutcome::kUnknownNode);

  // Source leave destroys its group and credits every debit it held.
  const std::size_t before = layer.group_count();
  EXPECT_TRUE(layer.leave(1, ids[0]));
  EXPECT_EQ(layer.group_count(), before - 1);
  EXPECT_TRUE(layer.check().empty());

  // Tearing every group down returns the ledger to zero.
  for (GroupId g : layer.group_ids()) EXPECT_TRUE(layer.destroy_group(g));
  EXPECT_DOUBLE_EQ(layer.ledger().max_utilization(), 0.0);
}

TEST(SessionLayer, LeaveAndFailReparentOrDropDeterministically) {
  // Roomy capacities: every join below must land, so the test can pin
  // exact membership after the leave and the failure.
  const FrozenDirectory dir = small_world(32, 7, 16, 16);
  SessionLayer layer(dir, strategy::registry().make("camkoorde"));
  const std::vector<Id>& ids = dir.ids();

  ASSERT_TRUE(layer.create_group(1, ids[0]));
  ASSERT_TRUE(layer.create_group(2, ids[0]));
  for (std::size_t i = 1; i < 12; ++i) {
    ASSERT_EQ(layer.join(1, ids[i]).outcome, JoinOutcome::kJoined);
  }
  for (std::size_t i = 1; i < 6; ++i) {
    ASSERT_EQ(layer.join(2, ids[i]).outcome, JoinOutcome::kJoined);
  }
  ASSERT_TRUE(layer.check().empty());

  // A mid-tree leave re-parents its children; state stays consistent.
  EXPECT_TRUE(layer.leave(1, ids[1]));
  EXPECT_FALSE(layer.group(1)->contains(ids[1]));
  EXPECT_TRUE(layer.group(2)->contains(ids[1]));
  EXPECT_TRUE(layer.check().empty());

  // A failure removes the node from EVERY group at once.
  layer.fail_node(ids[2]);
  EXPECT_FALSE(layer.group(1)->contains(ids[2]));
  EXPECT_FALSE(layer.group(2)->contains(ids[2]));
  EXPECT_TRUE(layer.check().empty());
  EXPECT_EQ(layer.counters().failures, 2u);

  // Determinism: an identical world replays to identical trees.
  SessionLayer replay(dir, strategy::registry().make("camkoorde"));
  ASSERT_TRUE(replay.create_group(1, ids[0]));
  ASSERT_TRUE(replay.create_group(2, ids[0]));
  for (std::size_t i = 1; i < 12; ++i) replay.join(1, ids[i]);
  for (std::size_t i = 1; i < 6; ++i) replay.join(2, ids[i]);
  replay.leave(1, ids[1]);
  replay.fail_node(ids[2]);
  for (GroupId g : layer.group_ids()) {
    ASSERT_NE(replay.group(g), nullptr);
    EXPECT_EQ(layer.group(g)->sorted_members(),
              replay.group(g)->sorted_members());
    for (Id m : layer.group(g)->sorted_members()) {
      EXPECT_EQ(layer.group(g)->member(m).parent,
                replay.group(g)->member(m).parent);
      EXPECT_EQ(layer.group(g)->member(m).depth,
                replay.group(g)->member(m).depth);
    }
  }
}

// --- single-group byte-identity vs the legacy stream plane ---------------

std::string golden_path(const std::string& name) {
  return std::string(CAM_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_golden(const std::string& name, const std::string& text) {
  const std::string path = golden_path(name);
  if (std::getenv("CAM_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    FAIL() << "regenerated " << path << " (" << text.size() << " bytes)";
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden " << path;
  EXPECT_EQ(text, want) << "single-group session diverged from golden "
                        << name;
}

std::string render_session(const dataplane::SessionStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "rate=%.17g completion=%.17g mean=%.17g first=%.17g "
                "receivers=%zu\n",
                s.session_rate_kbps, s.completion_ms, s.mean_rate_kbps,
                s.max_first_packet_ms, s.receivers);
  return buf;
}

TEST(SessionSingleGroup, ByteIdenticalToLegacyStreamPlane) {
  std::ostringstream golden;
  for (const char* key : {"camchord", "camkoorde"}) {
    const FrozenDirectory dir = small_world(64, 11);
    SessionLayer layer(dir, strategy::registry().make(key));
    const std::vector<Id>& ids = dir.ids();
    ASSERT_TRUE(layer.create_group(9, ids[0]));
    for (std::size_t i = 1; i < 40; ++i) {
      ASSERT_EQ(layer.join(9, ids[i]).outcome, JoinOutcome::kJoined);
    }
    ASSERT_TRUE(layer.check().empty());

    // The paper's FIFO plane: the SAME recorded tree, full uplinks,
    // through a FIFO-mode one-tree forwarder.
    const MulticastTree tree = layer.group(9)->to_multicast_tree();
    const ConstantLatency latency(10.0);
    dataplane::TrafficSpec cfg;
    cfg.packet_bytes = 1250;
    cfg.num_packets = 48;
    cfg.stream = 9;
    dataplane::ForwarderConfig fifo;
    fifo.backpressure = false;
    dataplane::BackpressureForwarder plane(tree, latency, fifo);
    plane.resolve_uplinks([&](Id x) { return dir.info(x).bandwidth_kbps; });
    const dataplane::SessionStats legacy = plane.run(cfg).session;

    session::GroupTraffic traffic;
    traffic.group = 9;
    traffic.packet_bytes = 1250;
    traffic.num_packets = 48;

    for (session::SchedMode mode :
         {session::SchedMode::kShared, session::SchedMode::kLedgerShares}) {
      session::MultiGroupForwarder fwd(layer, latency,
                                       session::MultiGroupConfig{mode});
      const session::MultiGroupStats stats = fwd.run({traffic});
      ASSERT_EQ(stats.groups.size(), 1u);
      const dataplane::SessionStats& got = stats.groups[0].session;
      // Bit-for-bit: EXPECT_EQ on every double, no tolerance.
      EXPECT_EQ(got.session_rate_kbps, legacy.session_rate_kbps);
      EXPECT_EQ(got.completion_ms, legacy.completion_ms);
      EXPECT_EQ(got.mean_rate_kbps, legacy.mean_rate_kbps);
      EXPECT_EQ(got.max_first_packet_ms, legacy.max_first_packet_ms);
      EXPECT_EQ(got.receivers, legacy.receivers);
      EXPECT_EQ(stats.groups[0].duplicate_deliveries, 0u);
      EXPECT_EQ(stats.groups[0].copies_delivered,
                stats.groups[0].copies_expected);
    }
    golden << strategy::registry().display_name(key) << " "
           << render_session(legacy);
  }
  expect_golden("session_single_group.txt", golden.str());
}

}  // namespace
}  // namespace cam
