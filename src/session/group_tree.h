// GroupTree: the explicit, incrementally-maintained multicast tree of
// one session-layer group.
//
// The paper's trees are implicit — reconstructed from the deliveries of
// one dissemination (multicast/tree.h). A long-lived group needs the
// opposite: a tree that exists between disseminations and is edited in
// place as members join, leave, and fail, because the CapacityLedger
// must know every node's fanout at admission time, not after the fact.
// GroupTree stores parent/children links both ways, keeps children in
// ascending-id order (all traversals deterministic), and converts to a
// MulticastTree whenever a dissemination layer wants the recorded-tree
// view (streaming, metrics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ids/ring.h"
#include "multicast/tree.h"
#include "session/ledger.h"
#include "util/flat_table.h"

namespace cam::session {

class GroupTree {
 public:
  struct Member {
    Id parent = 0;             // == own id for the source
    int depth = 0;             // hops from the source
    std::vector<Id> children;  // ascending
  };

  GroupTree(GroupId id, Id source);

  GroupId id() const { return id_; }
  Id source() const { return source_; }
  std::size_t size() const { return members_.size(); }

  bool contains(Id node) const { return members_.contains(node); }
  const Member& member(Id node) const { return members_.at(node); }

  /// Adds `node` under `parent` (a current member) at parent depth + 1.
  void add(Id node, Id parent);

  /// Removes a member with no children. Interior removals go through the
  /// session layer, which re-parents or drops the subtree first.
  void erase_leaf(Id node);

  /// Re-hangs `node` (and its whole subtree) under `new_parent`,
  /// recomputing every subtree depth. `new_parent` must not be inside
  /// the subtree (the session layer excludes it during placement).
  void set_parent(Id node, Id new_parent);

  /// `node`'s subtree in BFS order (node first, children ascending).
  std::vector<Id> subtree(Id node) const;

  /// All member ids, ascending. Kept current by add / erase_leaf, so
  /// reading it costs nothing; the reference is invalidated by the next
  /// edit of the tree.
  const std::vector<Id>& sorted_members() const { return sorted_; }

  /// Members ordered by (depth asc, id asc) — the fallback candidate
  /// order for join placement: shallow spots first, deterministic. Kept
  /// current by every edit (a re-hang re-files the moved subtree); the
  /// reference is invalidated by the next edit of the tree.
  const std::vector<Id>& members_by_depth() const { return by_depth_; }

  /// Recorded-tree view for the dissemination layers (delivery times 0).
  MulticastTree to_multicast_tree() const;

  /// Structural + ledger consistency, one line per defect ("" = none):
  /// parent membership and back-links, depth arithmetic, acyclicity,
  /// full reachability from the source, both member indexes agreeing
  /// with the member table, and per-member fanout equal to the ledger's
  /// debits for this group.
  std::vector<std::string> check(const CapacityLedger& ledger) const;

 private:
  /// Inserts / removes `node` in its depth's run of by_depth_.
  void file_by_depth(Id node, int depth);
  void unfile_by_depth(Id node, int depth);

  GroupId id_;
  Id source_;
  FlatMap<Id, Member> members_;
  std::vector<Id> sorted_;    // member ids, ascending
  std::vector<Id> by_depth_;  // member ids, (depth asc, id asc)
  // Depth d's members are by_depth_[depth_start_[d], depth_start_[d + 1]).
  std::vector<std::size_t> depth_start_;
};

}  // namespace cam::session
