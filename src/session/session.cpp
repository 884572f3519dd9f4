#include "session/session.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace cam::session {

namespace {

/// True when `anc` lies on the parent chain from `n` to the source —
/// i.e. `n` is inside `anc`'s subtree. Climbing parents is depth-bound
/// and allocation-free, which keeps the standby validity check cheap.
bool in_subtree_of(const GroupTree& tree, Id n, Id anc) {
  Id cur = n;
  for (;;) {
    if (cur == anc) return true;
    if (cur == tree.source()) return false;
    cur = tree.member(cur).parent;
  }
}

}  // namespace

const char* join_outcome_name(JoinOutcome o) {
  switch (o) {
    case JoinOutcome::kJoined: return "joined";
    case JoinOutcome::kAlreadyMember: return "already-member";
    case JoinOutcome::kNoCapacity: return "no-capacity";
    case JoinOutcome::kNoSuchGroup: return "no-such-group";
    case JoinOutcome::kUnknownNode: return "unknown-node";
  }
  return "?";
}

SessionLayer::SessionLayer(const FrozenDirectory& dir,
                           const strategy::MulticastStrategy& strat)
    : dir_(&dir), strategy_(&strat), ledger_(dir) {}

void SessionLayer::enlist(Id node, GroupId g) {
  std::vector<GroupId>& gs = groups_of_[node];
  gs.insert(std::lower_bound(gs.begin(), gs.end(), g), g);
}

void SessionLayer::delist(Id node, GroupId g) {
  std::vector<GroupId>& gs = groups_of_.at(node);
  const auto it = std::lower_bound(gs.begin(), gs.end(), g);
  assert(it != gs.end() && *it == g && "node is not listed in the group");
  gs.erase(it);
}

bool SessionLayer::create_group(GroupId g, Id source) {
  if (!dir_->contains(source) || groups_.contains(g)) return false;
  groups_.try_emplace(g, std::make_unique<GroupTree>(g, source));
  enlist(source, g);
  ++counters_.groups_created;
  return true;
}

bool SessionLayer::destroy_group(GroupId g) {
  auto it = groups_.find(g);
  if (it == groups_.end()) return false;
  const GroupTree& tree = *it->second;
  for (Id m : tree.sorted_members()) {
    ledger_.credit(m, g,
                   static_cast<std::uint32_t>(tree.member(m).children.size()));
    delist(m, g);
  }
  // Standby reservations and parked subtrees die with the group; parked
  // members never got re-attached, so they count as dropped.
  if (auto st = standby_.find(g); st != standby_.end()) {
    for (const auto& [node, target] : st->second) {
      ledger_.unreserve(target, g);
    }
    standby_.erase(g);
  }
  if (auto pk = parked_.find(g); pk != parked_.end()) {
    for (const ParkedSubtree& ps : pk->second) {
      counters_.dropped_members += ps.shape.size();
      for (const auto& [m, p] : ps.shape) delist(m, g);
    }
    parked_.erase(g);
  }
  groups_.erase(g);
  ++counters_.groups_destroyed;
  return true;
}

Id SessionLayer::place(const GroupTree& tree, Id node,
                       std::vector<Id> exclude, std::size_t* hops,
                       Id* standby_out) const {
  std::sort(exclude.begin(), exclude.end());
  auto feasible = [&](Id c) {
    return c != node &&
           !std::binary_search(exclude.begin(), exclude.end(), c) &&
           ledger_.available(c) > 0;
  };

  Id parent = kNoParent;
  Id standby = kNoParent;      // next feasible with unreserved headroom
  Id standby_any = kNoParent;  // next feasible at all (fallback)
  // Returns true once the search is complete: parent found and (when a
  // standby was requested) a headroom-backed standby found too.
  auto consider = [&](Id c) {
    if (!feasible(c)) return false;
    if (parent == kNoParent) {
      parent = c;
      return standby_out == nullptr;
    }
    if (c == parent) return false;
    if (standby_any == kNoParent) standby_any = c;
    if (ledger_.unreserved_headroom(c) > 0) {
      standby = c;
      return true;
    }
    return false;
  };

  // Locating-first: route a lookup for the joiner's identifier over the
  // current member overlay; the reverse path walks from the member
  // closest to the joiner in identifier space back toward the source.
  // The standby (when requested) is simply the NEXT feasible candidate
  // on this same join-time path — the node that would have adopted the
  // joiner had the chosen parent been full.
  bool done = false;
  if (tree.size() > 1 && strategy_->supports_lookup()) {
    // The member overlay is read straight off the tree's ascending
    // member index; the ledger supplies each member's c_x and B_x.
    const std::vector<Id>& ids = tree.sorted_members();
    std::vector<NodeInfo> info;
    info.reserve(ids.size());
    for (Id m : ids) info.push_back(ledger_.info(m));
    const FrozenDirectory members(dir_->ring(), ids, std::move(info));
    const LookupResult lr =
        strategy_->lookup(members, tree.source(), node, {});
    if (hops != nullptr) *hops = lr.ok ? lr.hops() : 0;
    if (lr.ok) {
      for (auto it = lr.path.rbegin(); it != lr.path.rend() && !done;
           ++it) {
        done = consider(*it);
      }
    }
  } else if (hops != nullptr) {
    *hops = 0;
  }
  // The path is saturated (or trivial): any member slack will do, taken
  // shallow-first so degraded placements stay close to the source.
  if (!done) {
    for (Id c : tree.members_by_depth()) {
      if (consider(c)) break;
    }
  }
  if (standby_out != nullptr) {
    *standby_out = standby != kNoParent ? standby : standby_any;
  }
  return parent;
}

Id SessionLayer::scan_standby(const GroupTree& tree, Id node,
                              Id avoid) const {
  const Id cur_parent = tree.member(node).parent;
  Id any = kNoParent;
  for (Id c : tree.members_by_depth()) {
    if (c == node || c == cur_parent || c == avoid ||
        ledger_.available(c) == 0) {
      continue;
    }
    if (in_subtree_of(tree, c, node)) continue;  // would form a cycle
    if (ledger_.unreserved_headroom(c) > 0) return c;
    if (any == kNoParent) any = c;
  }
  return any;
}

Id SessionLayer::standby_of(GroupId g, Id node) const {
  auto it = standby_.find(g);
  if (it == standby_.end()) return kNoParent;
  auto jt = it->second.find(node);
  return jt == it->second.end() ? kNoParent : jt->second;
}

void SessionLayer::set_standby(GroupId g, Id node, Id standby) {
  const Id old = standby_of(g, node);
  if (old == standby) return;
  if (old != kNoParent) {
    ledger_.unreserve(old, g);
    standby_.at(g).erase(node);
  }
  if (standby != kNoParent) {
    ledger_.reserve(standby, g);
    standby_[g][node] = standby;
  }
}

void SessionLayer::clear_standby(GroupId g, Id node) {
  set_standby(g, node, kNoParent);
}

void SessionLayer::clear_standbys_targeting(GroupId g, Id target) {
  auto it = standby_.find(g);
  if (it == standby_.end()) return;
  std::vector<Id> stale;
  for (const auto& [node, s] : it->second) {
    if (s == target) stale.push_back(node);
  }
  std::sort(stale.begin(), stale.end());
  for (Id node : stale) clear_standby(g, node);
}

JoinResult SessionLayer::join(GroupId g, Id node) {
  JoinResult r;
  if (!dir_->contains(node)) {
    r.outcome = JoinOutcome::kUnknownNode;
    return r;
  }
  auto it = groups_.find(g);
  if (it == groups_.end()) {
    r.outcome = JoinOutcome::kNoSuchGroup;
    return r;
  }
  GroupTree& tree = *it->second;
  if (tree.contains(node) || is_parked(g, node)) {
    r.outcome = JoinOutcome::kAlreadyMember;
    return r;
  }
  Id standby = kNoParent;
  const Id parent =
      place(tree, node, {}, &r.lookup_hops,
            policy_.standby ? &standby : nullptr);
  if (parent == kNoParent) {
    r.outcome = JoinOutcome::kNoCapacity;
    ++counters_.joins_rejected;
    return r;
  }
  const bool ok = ledger_.debit(parent, g);
  assert(ok && "place() returned a parent without slack");
  (void)ok;
  tree.add(node, parent);
  enlist(node, g);
  if (policy_.standby) set_standby(g, node, standby);
  r.outcome = JoinOutcome::kJoined;
  r.parent = parent;
  r.depth = tree.member(node).depth;
  ++counters_.joins_ok;
  return r;
}

void SessionLayer::remove_member(GroupTree& tree, Id node, bool failure) {
  const GroupId g = tree.id();
  const Id old_parent = tree.member(node).parent;
  const std::vector<Id> children = tree.member(node).children;  // copy
  // The departing node's own uplink slot at its parent frees first; its
  // standby claim and any claims pointing at it are void.
  ledger_.credit(old_parent, g);
  clear_standby(g, node);
  clear_standbys_targeting(g, node);
  for (Id c : children) {
    // `node` no longer forwards for c either way.
    ledger_.credit(node, g);
    bool handled = false;
    if (failure && policy_.standby) {
      // O(1) local re-hang: the precomputed standby adopts the orphan
      // without any placement scan — the failover fast path. The
      // reservation was soft, so the slot must be re-validated here;
      // stale standbys (gone, saturated, or now inside the orphan's own
      // subtree) fall through to full placement.
      const Id s = standby_of(g, c);
      if (s != kNoParent) {
        clear_standby(g, c);  // consumed or stale either way
        if (tree.contains(s) && s != node && ledger_.available(s) > 0 &&
            !in_subtree_of(tree, s, c)) {
          const bool ok = ledger_.debit(s, g);
          assert(ok);
          (void)ok;
          tree.set_parent(c, s);
          ++counters_.reparented;
          ++counters_.reparented_fail;
          ++counters_.reattach_standby;
          failover_log_.push_back(ReattachRecord{
              g, c, s, ReattachRecord::How::kStandby, 0, 1});
          set_standby(g, c, scan_standby(tree, c, node));
          handled = true;
        }
      }
    }
    if (!handled) {
      // The departing node must not adopt its own orphans: its slots
      // were just credited, which otherwise makes it the most
      // attractive candidate on the lookup path.
      std::vector<Id> exclude = tree.subtree(c);
      exclude.push_back(node);
      Id standby = kNoParent;
      std::size_t hops = 0;
      const Id adopter = place(tree, c, std::move(exclude), &hops,
                               policy_.standby ? &standby : nullptr);
      if (adopter != kNoParent) {
        const bool ok = ledger_.debit(adopter, g);
        assert(ok && "place() returned a parent without slack");
        (void)ok;
        tree.set_parent(c, adopter);
        ++counters_.reparented;
        if (failure) {
          ++counters_.reparented_fail;
          ++counters_.reattach_full;
          failover_log_.push_back(ReattachRecord{
              g, c, adopter, ReattachRecord::How::kPlacement, hops, 1});
        } else {
          ++counters_.reparented_leave;
        }
        if (policy_.standby) set_standby(g, c, standby);
      } else if (failure && policy_.park) {
        const std::size_t members = tree.subtree(c).size();
        park_subtree(tree, c);
        failover_log_.push_back(ReattachRecord{
            g, c, kNoParent, ReattachRecord::How::kParked, 0, members});
      } else {
        const std::vector<Id> sub = tree.subtree(c);
        for (Id m : sub) {
          ledger_.credit(
              m, g,
              static_cast<std::uint32_t>(tree.member(m).children.size()));
          clear_standby(g, m);
          clear_standbys_targeting(g, m);
          delist(m, g);
        }
        for (auto it = sub.rbegin(); it != sub.rend(); ++it) {
          tree.erase_leaf(*it);
        }
        counters_.dropped_members += sub.size();
        if (failure) {
          failover_log_.push_back(ReattachRecord{
              g, c, kNoParent, ReattachRecord::How::kDropped, 0,
              sub.size()});
        }
      }
    }
  }
  tree.erase_leaf(node);
  delist(node, g);
}

void SessionLayer::park_subtree(GroupTree& tree, Id child) {
  const GroupId g = tree.id();
  const std::vector<Id> sub = tree.subtree(child);  // BFS, root first
  ParkedSubtree ps;
  ps.root = child;
  ps.shape.reserve(sub.size());
  for (Id m : sub) {
    ps.shape.emplace_back(
        m, m == child ? kNoParent : tree.member(m).parent);
  }
  for (Id m : sub) {
    ledger_.credit(
        m, g, static_cast<std::uint32_t>(tree.member(m).children.size()));
    clear_standby(g, m);
    clear_standbys_targeting(g, m);
  }
  for (auto it = sub.rbegin(); it != sub.rend(); ++it) {
    tree.erase_leaf(*it);
  }
  parked_[g].push_back(std::move(ps));
  ++counters_.parked_subtrees;
}

bool SessionLayer::readmit_one(GroupTree& tree, const ParkedSubtree& ps) {
  const GroupId g = tree.id();
  std::size_t hops = 0;
  Id standby = kNoParent;
  const Id parent = place(tree, ps.root, {}, &hops,
                          policy_.standby ? &standby : nullptr);
  if (parent == kNoParent) return false;
  // Transactional rebuild: every internal edge must re-debit (other
  // groups may have claimed the subtree's capacity while it waited), or
  // the whole subtree stays parked.
  const bool ok = ledger_.debit(parent, g);
  assert(ok && "place() returned a parent without slack");
  (void)ok;
  tree.add(ps.root, parent);
  std::size_t added = 1;
  bool complete = true;
  for (std::size_t i = 1; i < ps.shape.size(); ++i) {
    const auto& [m, p] = ps.shape[i];
    if (!ledger_.debit(p, g)) {
      complete = false;
      break;
    }
    tree.add(m, p);
    ++added;
  }
  if (!complete) {
    for (std::size_t i = added; i-- > 0;) {
      const auto& [m, p] = ps.shape[i];
      tree.erase_leaf(m);
      ledger_.credit(i == 0 ? parent : p, g);
    }
    return false;
  }
  ++counters_.readmitted_subtrees;
  failover_log_.push_back(ReattachRecord{g, ps.root, parent,
                                         ReattachRecord::How::kReadmitted,
                                         hops, ps.shape.size()});
  if (policy_.standby) {
    set_standby(g, ps.root, standby);
    for (std::size_t i = 1; i < ps.shape.size(); ++i) {
      const Id m = ps.shape[i].first;
      set_standby(g, m, scan_standby(tree, m));
    }
  }
  return true;
}

void SessionLayer::try_readmit() {
  if (!policy_.park) return;
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<GroupId> gids;
    gids.reserve(parked_.size());
    for (const auto& [g, list] : parked_) {
      if (!list.empty()) gids.push_back(g);
    }
    std::sort(gids.begin(), gids.end());
    for (GroupId g : gids) {
      auto git = groups_.find(g);
      assert(git != groups_.end() && "parked list for a destroyed group");
      auto& list = parked_.at(g);
      // Strict FIFO per group: the head blocks the rest, so waiting
      // subtrees re-admit in the order they parked — deterministic and
      // starvation-free as capacity frees.
      while (!list.empty() && readmit_one(*git->second, list.front())) {
        list.erase(list.begin());
        progress = true;
      }
    }
  }
  parked_.erase_if([](const auto& kv) { return kv.second.empty(); });
}

void SessionLayer::remove_parked_member(GroupId g, Id node) {
  auto it = parked_.find(g);
  assert(it != parked_.end());
  delist(node, g);
  auto& list = it->second;
  for (std::size_t si = 0; si < list.size(); ++si) {
    ParkedSubtree& ps = list[si];
    auto me = std::find_if(
        ps.shape.begin(), ps.shape.end(),
        [&](const std::pair<Id, Id>& e) { return e.first == node; });
    if (me == ps.shape.end()) continue;
    if (node == ps.root) {
      // The root leaves: each of its direct children seeds its own
      // parked subtree, queued in place of the original (child order),
      // so the remaining members keep their FIFO position.
      std::vector<ParkedSubtree> pieces;
      for (std::size_t i = 1; i < ps.shape.size(); ++i) {
        if (ps.shape[i].second != node) continue;
        pieces.push_back(ParkedSubtree{ps.shape[i].first, {}});
        pieces.back().shape.emplace_back(ps.shape[i].first, kNoParent);
      }
      // BFS order of the original shape keeps each piece's shape BFS.
      for (std::size_t i = 1; i < ps.shape.size(); ++i) {
        const auto& [m, p] = ps.shape[i];
        if (p == node) continue;
        for (ParkedSubtree& piece : pieces) {
          if (std::any_of(piece.shape.begin(), piece.shape.end(),
                          [&](const std::pair<Id, Id>& e) {
                            return e.first == p;
                          })) {
            piece.shape.emplace_back(m, p);
            break;
          }
        }
      }
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(si));
      list.insert(list.begin() + static_cast<std::ptrdiff_t>(si),
                  pieces.begin(), pieces.end());
    } else {
      // Interior splice: the member's children re-hang onto its parent
      // within the shape.
      const Id up = me->second;
      for (auto& [m, p] : ps.shape) {
        if (p == node) p = up;
      }
      ps.shape.erase(std::find_if(
          ps.shape.begin(), ps.shape.end(),
          [&](const std::pair<Id, Id>& e) { return e.first == node; }));
    }
    if (auto empty_it = std::find_if(
            list.begin(), list.end(),
            [](const ParkedSubtree& p) { return p.shape.empty(); });
        empty_it != list.end()) {
      list.erase(empty_it);
    }
    if (list.empty()) parked_.erase(g);
    return;
  }
  assert(false && "remove_parked_member: node not parked in this group");
}

bool SessionLayer::leave(GroupId g, Id node) {
  auto it = groups_.find(g);
  if (it == groups_.end()) return false;
  if (it->second->contains(node)) {
    ++counters_.leaves;
    if (node == it->second->source()) {
      const bool ok = destroy_group(g);
      try_readmit();
      return ok;
    }
    remove_member(*it->second, node, /*failure=*/false);
    try_readmit();
    return true;
  }
  if (is_parked(g, node)) {
    // A parked member departing holds no ledger debits; it just leaves
    // the wait list (still a graceful leave from the group's view).
    ++counters_.leaves;
    remove_parked_member(g, node);
    return true;
  }
  return false;
}

void SessionLayer::fail_node(Id node) {
  // Only the node's own groups change, still in ascending group id: a
  // group's surgery touches no other group's membership. The list is
  // copied because the surgery delists the node as it goes.
  auto it = groups_of_.find(node);
  const std::vector<GroupId> gids =
      it == groups_of_.end() ? std::vector<GroupId>{} : it->second;
  for (GroupId g : gids) {
    ++counters_.failures;
    GroupTree& tree = *groups_.at(g);
    if (!tree.contains(node)) {
      remove_parked_member(g, node);
    } else if (node == tree.source()) {
      destroy_group(g);
    } else {
      remove_member(tree, node, /*failure=*/true);
    }
  }
  try_readmit();
}

bool SessionLayer::is_parked(GroupId g, Id node) const {
  auto it = parked_.find(g);
  if (it == parked_.end()) return false;
  for (const ParkedSubtree& ps : it->second) {
    for (const auto& [m, p] : ps.shape) {
      if (m == node) return true;
    }
  }
  return false;
}

std::size_t SessionLayer::parked_count(GroupId g) const {
  auto it = parked_.find(g);
  return it == parked_.end() ? 0 : it->second.size();
}

std::size_t SessionLayer::parked_member_count(GroupId g) const {
  auto it = parked_.find(g);
  if (it == parked_.end()) return 0;
  std::size_t n = 0;
  for (const ParkedSubtree& ps : it->second) n += ps.shape.size();
  return n;
}

std::size_t SessionLayer::total_parked_members() const {
  std::size_t n = 0;
  for (const auto& [g, list] : parked_) {
    for (const ParkedSubtree& ps : list) n += ps.shape.size();
  }
  return n;
}

double SessionLayer::throttle(GroupId g) const {
  const std::size_t waiting = parked_member_count(g);
  if (waiting == 0) return 1.0;
  auto it = groups_.find(g);
  const std::size_t attached = it == groups_.end() ? 0 : it->second->size();
  if (attached == 0) return 1.0;
  return static_cast<double>(attached) /
         static_cast<double>(attached + waiting);
}

std::vector<ReattachRecord> SessionLayer::take_failover_log() {
  std::vector<ReattachRecord> out;
  out.swap(failover_log_);
  return out;
}

const GroupTree* SessionLayer::group(GroupId g) const {
  auto it = groups_.find(g);
  return it == groups_.end() ? nullptr : it->second.get();
}

std::vector<GroupId> SessionLayer::group_ids() const {
  std::vector<GroupId> out;
  out.reserve(groups_.size());
  for (const auto& [g, tree] : groups_) out.push_back(g);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> SessionLayer::check() const {
  std::vector<std::string> issues;
  FlatMap<Id, std::uint32_t> expected;
  for (GroupId g : group_ids()) {
    const GroupTree& tree = *groups_.at(g);
    std::vector<std::string> tree_issues = tree.check(ledger_);
    issues.insert(issues.end(), tree_issues.begin(), tree_issues.end());
    for (Id m : tree.sorted_members()) {
      expected[m] +=
          static_cast<std::uint32_t>(tree.member(m).children.size());
    }
  }
  // Every ledger debit must be backed by a live tree edge — no leaks
  // from departed members or destroyed groups.
  for (Id id : dir_->ids()) {
    auto it = expected.find(id);
    const std::uint32_t want = it == expected.end() ? 0 : it->second;
    if (ledger_.used(id) != want) {
      issues.push_back("node " + std::to_string(id) + ": ledger used " +
                       std::to_string(ledger_.used(id)) +
                       " != tree fanout total " + std::to_string(want));
    }
  }
  for (Id id : ledger_.oversubscribed()) {
    issues.push_back("node " + std::to_string(id) +
                     ": oversubscribed beyond capacity");
  }
  // Every soft reservation must be backed by a live standby entry whose
  // member AND target are still attached members of the group.
  FlatMap<Id, std::uint32_t> expected_reserved;
  for (const auto& [g, row] : standby_) {
    const GroupTree* tree = group(g);
    if (tree == nullptr) {
      issues.push_back("group " + std::to_string(g) +
                       ": standby entries for a destroyed group");
      continue;
    }
    for (const auto& [node, target] : row) {
      if (!tree->contains(node)) {
        issues.push_back("group " + std::to_string(g) + ": member " +
                         std::to_string(node) +
                         " holds a standby but is not in the tree");
      }
      if (!tree->contains(target)) {
        issues.push_back("group " + std::to_string(g) + ": standby " +
                         std::to_string(target) + " of member " +
                         std::to_string(node) + " is not in the tree");
      }
      ++expected_reserved[target];
    }
  }
  for (Id id : dir_->ids()) {
    auto it = expected_reserved.find(id);
    const std::uint32_t want = it == expected_reserved.end() ? 0 : it->second;
    if (ledger_.reserved(id) != want) {
      issues.push_back("node " + std::to_string(id) +
                       ": ledger reserved " +
                       std::to_string(ledger_.reserved(id)) +
                       " != standby map total " + std::to_string(want));
    }
  }
  // Parked members are detached: no debits (checked above via the edge
  // accounting) and never simultaneously in the tree.
  for (const auto& [g, list] : parked_) {
    const GroupTree* tree = group(g);
    if (tree == nullptr) {
      issues.push_back("group " + std::to_string(g) +
                       ": parked subtrees for a destroyed group");
      continue;
    }
    for (const ParkedSubtree& ps : list) {
      for (const auto& [m, p] : ps.shape) {
        if (tree->contains(m)) {
          issues.push_back("group " + std::to_string(g) + ": member " +
                           std::to_string(m) +
                           " is both parked and in the tree");
        }
      }
    }
  }
  // The membership index lists, per node, exactly the groups whose tree
  // or park list holds it.
  FlatMap<Id, std::vector<GroupId>> expected_groups;
  for (GroupId g : group_ids()) {
    for (Id m : groups_.at(g)->sorted_members()) {
      expected_groups[m].push_back(g);
    }
    if (auto pk = parked_.find(g); pk != parked_.end()) {
      for (const ParkedSubtree& ps : pk->second) {
        for (const auto& [m, p] : ps.shape) expected_groups[m].push_back(g);
      }
    }
  }
  const std::vector<GroupId> none;
  for (Id id : dir_->ids()) {
    auto want = expected_groups.find(id);
    auto have = groups_of_.find(id);
    if ((want == expected_groups.end() ? none : want->second) !=
        (have == groups_of_.end() ? none : have->second)) {
      issues.push_back("node " + std::to_string(id) +
                       ": membership index disagrees with the trees and "
                       "park lists");
    }
  }
  return issues;
}

}  // namespace cam::session
