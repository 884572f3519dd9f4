// Placement golden: standby + park failover pinned call by call.
//
// A generated WorkloadPlan (zipf groups, diurnal churn, two regionfail
// bursts) is replayed one call at a time on a SessionLayer with
// FailoverPolicy{standby, park} on. The rendered transcript — every
// join's outcome, parent, depth and lookup hops, then the lifecycle
// counters, the failover log, every group's tree with its standbys, and
// every node's ledger row — must match the committed golden byte for
// byte. The plan is sized so that every failover path runs: standby
// re-hangs, full re-placements, parks, re-admissions and rejected
// joins. The session_chaos_detoff_* goldens cover failover-off runs
// only; this file is what pins the failover-on placement walk.
//
// Regenerate with CAM_REGEN_GOLDENS=1 (the test then fails once,
// naming the file it wrote).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "session/session.h"
#include "strategy/strategy.h"
#include "workload/population.h"
#include "workload/session_workload.h"

namespace cam {
namespace {

using session::FailoverPolicy;
using session::GroupId;
using session::GroupTree;
using session::JoinResult;
using session::ReattachRecord;
using session::SessionCounters;
using session::SessionLayer;
using session::kNoParent;

constexpr std::size_t kNodes = 160;
constexpr std::uint64_t kSeed = 13;

std::string golden_path(const std::string& name) {
  return std::string(CAM_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string id_or_dash(Id id) {
  return id == kNoParent ? "-" : std::to_string(id);
}

const char* how_name(ReattachRecord::How h) {
  switch (h) {
    case ReattachRecord::How::kStandby: return "standby";
    case ReattachRecord::How::kPlacement: return "placement";
    case ReattachRecord::How::kParked: return "parked";
    case ReattachRecord::How::kDropped: return "dropped";
    case ReattachRecord::How::kReadmitted: return "readmitted";
  }
  return "?";
}

FrozenDirectory golden_world() {
  workload::PopulationSpec spec;
  spec.n = kNodes;
  spec.ring_bits = 16;
  spec.seed = kSeed;
  return workload::uniform_capacity_population(spec, 2, 4).freeze();
}

workload::WorkloadPlan golden_plan(const FrozenDirectory& dir) {
  const Id ring = dir.ring().size();
  workload::WorkloadPlan plan;
  plan.groups(30, 1.0, 2, 64)
      .diurnal(0, 1000, 500, 0.5, 0.5, 0.3)
      .region_fail(400, ring / 5, 0.05, 16)
      .region_fail(800, ring / 5 * 3, 0.05, 16);
  return plan;
}

/// Replays the plan call by call and renders the whole transcript.
std::string render_run(const char* strategy_key, SessionCounters* out) {
  const FrozenDirectory dir = golden_world();
  const std::vector<workload::SessionEvent> script =
      workload::generate_events(golden_plan(dir), dir, kSeed);
  SessionLayer layer(dir, strategy::registry().make(strategy_key));
  layer.set_failover_policy(FailoverPolicy{true, true});

  std::ostringstream os;
  os << "# " << strategy_key << " n=" << kNodes << " seed=" << kSeed
     << " events=" << script.size() << "\n";
  for (const workload::SessionEvent& e : script) {
    switch (e.op) {
      case workload::SessionOp::kCreate:
        os << "create g=" << e.group << " node=" << e.node << " "
           << (layer.create_group(e.group, e.node) ? "ok" : "refused")
           << "\n";
        break;
      case workload::SessionOp::kJoin: {
        const JoinResult r = layer.join(e.group, e.node);
        os << "join g=" << e.group << " node=" << e.node << " "
           << session::join_outcome_name(r.outcome)
           << " parent=" << r.parent << " depth=" << r.depth
           << " hops=" << r.lookup_hops << "\n";
        break;
      }
      case workload::SessionOp::kLeave:
        os << "leave g=" << e.group << " node=" << e.node << " "
           << (layer.leave(e.group, e.node) ? "ok" : "noop") << "\n";
        break;
      case workload::SessionOp::kFail:
        layer.fail_node(e.node);
        os << "fail node=" << e.node << "\n";
        break;
    }
  }

  const SessionCounters& c = layer.counters();
  os << "counters created=" << c.groups_created
     << " destroyed=" << c.groups_destroyed << " joins_ok=" << c.joins_ok
     << " joins_rejected=" << c.joins_rejected << " leaves=" << c.leaves
     << " failures=" << c.failures << " reparented=" << c.reparented
     << " dropped=" << c.dropped_members
     << " reparented_leave=" << c.reparented_leave
     << " reparented_fail=" << c.reparented_fail
     << " reattach_standby=" << c.reattach_standby
     << " reattach_full=" << c.reattach_full
     << " parked=" << c.parked_subtrees
     << " readmitted=" << c.readmitted_subtrees << "\n";
  for (const ReattachRecord& r : layer.take_failover_log()) {
    os << "failover g=" << r.group << " child=" << r.child
       << " parent=" << id_or_dash(r.parent) << " " << how_name(r.how)
       << " hops=" << r.lookup_hops << " members=" << r.members << "\n";
  }
  for (GroupId g : layer.group_ids()) {
    const GroupTree& tree = *layer.group(g);
    os << "group " << g << " source=" << tree.source()
       << " size=" << tree.size() << " parked=" << layer.parked_count(g)
       << "/" << layer.parked_member_count(g) << "\n";
    for (Id m : tree.sorted_members()) {
      const GroupTree::Member& mem = tree.member(m);
      os << "  " << m << " parent=" << mem.parent << " depth=" << mem.depth
         << " standby=" << id_or_dash(layer.standby_of(g, m)) << "\n";
    }
  }
  for (Id x : dir.ids()) {
    os << "ledger " << x << " cap=" << layer.ledger().capacity(x)
       << " used=" << layer.ledger().used(x)
       << " reserved=" << layer.ledger().reserved(x) << "\n";
  }

  const std::vector<std::string> defects = layer.check();
  EXPECT_TRUE(defects.empty()) << defects.front();
  *out = c;
  return os.str();
}

void expect_golden(const char* strategy_key) {
  SessionCounters c;
  const std::string text = render_run(strategy_key, &c);
  // The plan must drive every failover path, or the golden pins less
  // than it claims.
  EXPECT_GT(c.reattach_standby, 0u);
  EXPECT_GT(c.reattach_full, 0u);
  EXPECT_GT(c.parked_subtrees, 0u);
  EXPECT_GT(c.readmitted_subtrees, 0u);
  EXPECT_GT(c.joins_rejected, 0u);

  const std::string path = golden_path(
      std::string("session_placement_") + strategy_key + ".txt");
  if (std::getenv("CAM_REGEN_GOLDENS") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    f << text;
    FAIL() << "regenerated " << path << " (" << text.size() << " bytes)";
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden " << path;
  EXPECT_EQ(text, want) << "placement transcript diverged from " << path;
}

TEST(SessionPlacementGolden, CamChordStandbyAndPark) {
  expect_golden("camchord");
}

TEST(SessionPlacementGolden, CamKoordeStandbyAndPark) {
  expect_golden("camkoorde");
}

}  // namespace
}  // namespace cam
