// SessionLayer: many concurrent multicast groups over one shared
// capacity-constrained overlay.
//
// Group lifecycle — create / join / leave / fail / destroy — maintains
// one GroupTree per group plus the global CapacityLedger that charges
// every accepted child against its parent's shared uplink budget c_x.
//
// Join placement is locating-first (Kaafar et al.): the group's source
// routes a lookup for the joiner's identifier over the *member* overlay
// (CAM-Chord or CAM-Koorde, the same routing code the figure benches
// use), and the reverse lookup path — identifier-space locality first,
// source last — is the candidate-parent order. The first candidate with
// ledger slack adopts the joiner; when the whole path is saturated, a
// deterministic (depth asc, id asc) scan over the members finds any
// remaining slack; when none exists the join is REJECTED rather than
// oversubscribing anyone — the paper's capacity-aware admission rule
// generalized to many groups.
//
// Leave and fail re-parent each orphaned subtree through the same
// placement routine (the orphan's own subtree is excluded so re-hanging
// cannot form a cycle); a subtree with no feasible parent anywhere is
// dropped from the group and counted. Everything is deterministic:
// member scans walk each tree's ordered member indexes, lookups are pure
// functions of the member set, and no RNG is consulted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "overlay/directory.h"
#include "session/group_tree.h"
#include "session/ledger.h"
#include "strategy/strategy.h"
#include "util/flat_table.h"

namespace cam::session {

/// "No feasible parent" sentinel. Ring identifiers live in
/// [0, 2^bits) with bits < 64 everywhere in this repo, so the all-ones
/// id can never name a member.
inline constexpr Id kNoParent = ~Id{0};

enum class JoinOutcome : std::uint8_t {
  kJoined,
  kAlreadyMember,
  kNoCapacity,   // every member's shared uplink budget is exhausted
  kNoSuchGroup,
  kUnknownNode,  // joiner is not in the overlay directory
};

const char* join_outcome_name(JoinOutcome o);

struct JoinResult {
  JoinOutcome outcome = JoinOutcome::kNoSuchGroup;
  Id parent = 0;             // valid when outcome == kJoined
  int depth = 0;             // joiner's depth when joined
  std::size_t lookup_hops = 0;  // overlay hops of the locating lookup
};

/// Monotonic lifecycle counters (the `camsim groups` scoreboard).
struct SessionCounters {
  std::uint64_t groups_created = 0;
  std::uint64_t groups_destroyed = 0;
  std::uint64_t joins_ok = 0;
  std::uint64_t joins_rejected = 0;  // kNoCapacity only
  std::uint64_t leaves = 0;
  std::uint64_t failures = 0;        // per fail_node(): groups the node was
                                     // in or parked in
  std::uint64_t reparented = 0;      // orphan subtree roots re-hung (total)
  std::uint64_t dropped_members = 0; // members lost with their subtree
  // ISSUE 8 satellite: failover metrics are not conflated with routine
  // departures. reparented == reparented_leave + reparented_fail, and
  // reparented_fail == reattach_standby + reattach_full.
  std::uint64_t reparented_leave = 0;   // re-hangs behind graceful leaves
  std::uint64_t reparented_fail = 0;    // re-hangs behind failures
  std::uint64_t reattach_standby = 0;   // failure re-hangs via standby
  std::uint64_t reattach_full = 0;      // failure re-hangs via placement
  std::uint64_t parked_subtrees = 0;    // subtrees parked (degradation)
  std::uint64_t readmitted_subtrees = 0;
};

/// Failover behavior knobs. Both default OFF, which reproduces the PR 7
/// pipeline exactly (full placement on failure, saturated subtrees
/// dropped) — detector-off byte-identity depends on that.
struct FailoverPolicy {
  /// Precompute a standby parent per non-source member from its
  /// join-time candidate path (soft ledger reservation); parent death
  /// re-hangs the orphan onto the standby in O(1), falling back to full
  /// placement only when the standby is stale or out of slack.
  bool standby = false;
  /// When neither standby nor placement has slack after a FAILURE, park
  /// the orphan subtree in a per-group wait list instead of dropping
  /// it; parked subtrees re-admit deterministically (group asc, FIFO)
  /// as capacity credits back.
  bool park = false;

  bool operator==(const FailoverPolicy&) const = default;
};

/// One failover decision, logged by fail_node()'s surgery (and by later
/// re-admissions) so the chaos harness can time and histogram recovery
/// without re-deriving what the layer did.
struct ReattachRecord {
  enum class How : std::uint8_t {
    kStandby,     // O(1) re-hang onto the precomputed standby
    kPlacement,   // full locating-first placement
    kParked,      // no slack anywhere: subtree parked (degraded)
    kDropped,     // no slack and parking disabled: subtree lost
    kReadmitted,  // parked subtree re-admitted (capacity freed)
  };
  GroupId group = 0;
  Id child = 0;             // orphan / parked subtree root
  Id parent = kNoParent;    // new parent (kNoParent when parked/dropped)
  How how = How::kPlacement;
  std::size_t lookup_hops = 0;  // placement cost (0 for standby)
  std::size_t members = 1;      // subtree size (root included)
};

class SessionLayer {
 public:
  /// `dir` is the converged overlay (all joinable nodes); both `dir`
  /// and `strat` must outlive the layer. `strat` picks the member-
  /// overlay routing used by locating-first placement; strategies
  /// without lookup support fall back to the deterministic
  /// shallow-first member scan.
  SessionLayer(const FrozenDirectory& dir,
               const strategy::MulticastStrategy& strat);

  const FrozenDirectory& directory() const { return *dir_; }
  const strategy::MulticastStrategy& strategy() const { return *strategy_; }
  CapacityLedger& ledger() { return ledger_; }
  const CapacityLedger& ledger() const { return ledger_; }
  const SessionCounters& counters() const { return counters_; }

  /// Set before any group exists; standbys are computed at join time.
  void set_failover_policy(FailoverPolicy p) { policy_ = p; }

  /// The standby parent currently held for `node` in group `g`
  /// (kNoParent when none).
  Id standby_of(GroupId g, Id node) const;

  // --- graceful degradation (parked subtrees) --------------------------
  /// Whether `node` waits in `g`'s park list (still a member, detached).
  bool is_parked(GroupId g, Id node) const;
  /// Parked subtrees queued in `g`.
  std::size_t parked_count(GroupId g) const;
  /// Members waiting across `g`'s parked subtrees.
  std::size_t parked_member_count(GroupId g) const;
  /// Members waiting across every group.
  std::size_t total_parked_members() const;
  /// Source throttle factor in (0, 1]: attached / (attached + parked).
  /// 1.0 when nothing is parked — the dataplane scales the source's
  /// emission rate by this instead of dropping the waiting subtree.
  double throttle(GroupId g) const;

  /// Drains the failover log: one record per failure-driven re-hang,
  /// park, drop, and re-admission since the last call.
  std::vector<ReattachRecord> take_failover_log();

  /// Creates a group rooted at `source`. False if the id is taken or
  /// the source is unknown.
  bool create_group(GroupId g, Id source);
  /// Tears a group down, crediting every ledger debit it held.
  bool destroy_group(GroupId g);

  JoinResult join(GroupId g, Id node);
  /// Graceful departure. The source leaving destroys the group.
  bool leave(GroupId g, Id node);
  /// Crash: the node vanishes from every group at once (its subtrees
  /// are re-parented or dropped per group, exactly as on leave).
  void fail_node(Id node);

  const GroupTree* group(GroupId g) const;
  /// Live group ids, ascending.
  std::vector<GroupId> group_ids() const;
  std::size_t group_count() const { return groups_.size(); }

  /// Cross-group consistency: every tree's check() against the ledger,
  /// plus no node oversubscribed and no ledger debit without a tree
  /// edge behind it. One line per defect; empty = converged.
  std::vector<std::string> check() const;

 private:
  /// A parked subtree: the shape is the BFS (node, parent) edge list,
  /// root first with parent == kNoParent, so re-admission can rebuild
  /// it top-down and a mid-wait leave can splice one member out.
  struct ParkedSubtree {
    Id root = kNoParent;
    std::vector<std::pair<Id, Id>> shape;
  };

  /// Candidate-parent search for hanging `node` (or an orphan subtree
  /// rooted at `node`) into `tree`. `exclude` lists members that cannot
  /// adopt (the orphan's own subtree). Returns kNoParent when no member
  /// has slack. When `standby_out` is non-null the walk continues past
  /// the chosen parent and yields the next feasible candidate on the
  /// same join-time path (preferring nodes with unreserved headroom) —
  /// the member's standby parent. Passing nullptr leaves the search
  /// behavior exactly as before ISSUE 8.
  Id place(const GroupTree& tree, Id node, std::vector<Id> exclude,
           std::size_t* hops, Id* standby_out = nullptr) const;

  /// Removes `node` from one group: credits its uplink edge, then
  /// re-hangs (standby first on failure), parks, or drops each orphaned
  /// child subtree. `failure` selects the failover pipeline and the
  /// counter split.
  void remove_member(GroupTree& tree, Id node, bool failure);

  /// Depth-scan replacement standby for `node` (no lookup): first
  /// feasible non-ancestor-excluded member, preferring unreserved
  /// headroom. Used off the critical path after a standby is consumed.
  /// `avoid` bans one extra candidate — the node whose departure
  /// triggered the rescan is still in the tree with freshly credited
  /// slots, and must not become the replacement standby.
  Id scan_standby(const GroupTree& tree, Id node,
                  Id avoid = kNoParent) const;

  void set_standby(GroupId g, Id node, Id standby);
  void clear_standby(GroupId g, Id node);
  /// Drops every standby entry in `g` that points AT `target` (the
  /// target is leaving the tree, so those claims are void).
  void clear_standbys_targeting(GroupId g, Id target);

  /// Detaches `child`'s subtree into `g`'s park list, crediting every
  /// internal edge (the subtree holds no ledger debits while parked).
  void park_subtree(GroupTree& tree, Id child);
  /// Attempts to re-hang one parked subtree; transactional (all edges
  /// debit or none do).
  bool readmit_one(GroupTree& tree, const ParkedSubtree& ps);
  /// Re-admits parked subtrees (group asc, FIFO per group) until no
  /// further progress. Called wherever ledger capacity frees.
  void try_readmit();
  /// Splices a leaving/failing member out of a parked shape.
  void remove_parked_member(GroupId g, Id node);

  /// Records / forgets that `node` belongs to `g`, attached or parked.
  void enlist(Id node, GroupId g);
  void delist(Id node, GroupId g);

  const FrozenDirectory* dir_;
  const strategy::MulticastStrategy* strategy_;
  CapacityLedger ledger_;
  FlatMap<GroupId, std::unique_ptr<GroupTree>> groups_;
  SessionCounters counters_;
  FailoverPolicy policy_;
  FlatMap<GroupId, FlatMap<Id, Id>> standby_;  // group -> member -> standby
  FlatMap<GroupId, std::vector<ParkedSubtree>> parked_;  // FIFO per group
  // node -> groups it is attached to or parked in, ascending; scopes
  // fail_node() to the node's own groups.
  FlatMap<Id, std::vector<GroupId>> groups_of_;
  std::vector<ReattachRecord> failover_log_;
};

}  // namespace cam::session
