// Shared protocol-mode machinery for ring-based overlays.
//
// All four systems in this repository (CAM-Chord, CAM-Koorde, and the
// Chord/Koorde baselines) sit on the same identifier ring and use the
// same membership protocols — the paper inherits them from Chord
// (Sections 3.3 and 4.2: "Koorde uses Chord's protocols with a new
// LOOKUP routine ... so does CAM-Koorde"). This base class implements:
//
//   * bootstrap / join-via-lookup / graceful leave / abrupt fail,
//   * successor lists and the stabilize + notify reconciliation loop,
//   * fix-neighbors driven by the subclass's LOOKUP,
//   * converge() (repeat rounds until the routing state is a fixpoint),
//   * oracle_fill() (install ground-truth state, for tests and benches).
//
// Subclasses own their routing tables and provide LOOKUP / MULTICAST.
// Cross-node interactions are synchronous reads of peer state (the usual
// overlay-simulation shortcut) with message counts tallied on the
// Network; multicast data paths run event-driven through the simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ids/ring.h"
#include "multicast/tree.h"
#include "overlay/directory.h"
#include "overlay/types.h"
#include "sim/network.h"
#include "util/flat_table.h"

namespace cam {

/// Hop budget of one synchronous LOOKUP before it reports failure.
inline constexpr std::size_t kSyncMaxLookupHops = 512;

class RingOverlayNet {
 public:
  RingOverlayNet(RingSpace ring, Network& net);
  virtual ~RingOverlayNet() = default;

  RingOverlayNet(const RingOverlayNet&) = delete;
  RingOverlayNet& operator=(const RingOverlayNet&) = delete;

  const RingSpace& ring() const { return ring_; }
  Network& network() { return net_; }
  std::size_t size() const { return nodes_.size(); }
  bool contains(Id id) const { return nodes_.contains(id); }
  const NodeInfo& info(Id id) const { return base(id).info; }
  std::vector<Id> members_sorted() const;

  /// Live successor of a member (skipping failed successor-list entries).
  Id successor(Id id) const { return live_successor(base(id)); }
  std::optional<Id> predecessor(Id id) const;
  const std::vector<Id>& successor_list(Id id) const {
    return base(id).succ_list;
  }

  /// Creates the first member (a one-node ring).
  void bootstrap(Id id, NodeInfo info);

  /// Joins through existing member `via`: resolves successor(id) with the
  /// subclass LOOKUP, links in, and lets stabilization finish the job.
  bool join(Id id, NodeInfo info, Id via);

  /// Graceful departure: hands ring links over before leaving.
  bool leave(Id id);

  /// Abrupt failure: the node disappears without notice.
  bool fail(Id id);

  /// One stabilization round at every member.
  void stabilize_all();

  /// Refreshes all routing-table entries at every member via LOOKUP.
  void fix_neighbors_all();

  /// stabilize + fix_neighbors rounds until the state digest stops
  /// changing; returns rounds used (max_rounds + 1 if not converged).
  int converge(int max_rounds = 64);

  /// Installs ground-truth routing state everywhere (a converged overlay).
  void oracle_fill();

  /// Members with no live remote contact at all — predecessor dead or
  /// self, every successor-list entry dead, no live routing entry. Such
  /// a node is partitioned from the group: no protocol message can reach
  /// or leave it, so stabilization cannot repair it. Deployed DHTs
  /// recover through an out-of-band bootstrap contact.
  std::vector<Id> isolated_members() const;

  /// Re-admits every isolated member through live member `via` (the
  /// bootstrap service): equivalent to an abrupt depart followed by a
  /// fresh join with the same NodeInfo. Returns the rejoined ids.
  std::vector<Id> rejoin_isolated(Id via);

  /// Groups the membership by the successor-pointer cycle each node
  /// reaches (following live successors). A healthy overlay has exactly
  /// one group; heavy churn can leave disjoint rings — e.g. joins served
  /// by a node that was itself cut off. Groups are sorted internally and
  /// ordered largest-first.
  std::vector<std::vector<Id>> ring_partitions() const;

  /// Periodic bootstrap reconciliation: every member outside `trusted`'s
  /// partition leaves abruptly and rejoins through `trusted`, re-merging
  /// split rings. Returns the rejoined ids. Run converge() afterwards.
  std::vector<Id> heal_partitions(Id trusted);

  virtual LookupResult lookup(Id from, Id target) const = 0;
  virtual MulticastTree multicast(Id source) = 0;

 protected:
  struct BaseState {
    Id self = 0;
    NodeInfo info;
    std::optional<Id> pred;
    std::vector<Id> succ_list;  // [0] is the successor
  };

  bool alive(Id id) const { return nodes_.contains(id); }
  BaseState& base(Id id);
  const BaseState& base(Id id) const;
  Id live_successor(const BaseState& st) const;

  // --- subclass hooks ---
  /// Smallest capacity the routing structure supports.
  virtual std::uint32_t min_capacity() const = 0;
  /// Initialize routing entries for a node; `initial_owner` is the
  /// joining node's successor (or the node itself at bootstrap).
  virtual void init_entries(Id id, Id initial_owner) = 0;
  /// Drop routing entries when a node departs.
  virtual void drop_entries(Id id) = 0;
  /// Refresh the node's routing entries via LOOKUP.
  virtual void fix_entries(Id id) = 0;
  /// Install ground-truth entries from the directory.
  virtual void oracle_fill_entries(Id id, const NodeDirectory& dir) = 0;
  /// Fold the node's routing entries into a convergence digest.
  virtual std::uint64_t entries_digest(Id id) const = 0;
  /// The live routing-table entry clockwise-closest to `id` (excluding
  /// id itself), if any. Stabilization uses it to repair successor
  /// pointers from table references — without it, heavy churn can leave
  /// the ring split into stable disjoint cycles (dead successor lists
  /// make islands; joins through an island grow a second ring), exactly
  /// the partition risk the paper discusses in Section 2.
  virtual std::optional<Id> closest_live_entry_after(Id id) const = 0;

  RingSpace ring_;
  Network& net_;
  FlatMap<Id, BaseState> nodes_;

 private:
  void notify(BaseState& succ_state, Id candidate);
  void refresh_succ_list(BaseState& st);
  std::uint64_t state_digest() const;
};

}  // namespace cam
