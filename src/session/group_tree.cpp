#include "session/group_tree.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace cam::session {

GroupTree::GroupTree(GroupId id, Id source)
    : id_(id), source_(source), sorted_{source}, by_depth_{source},
      depth_start_{0, 1} {
  Member m;
  m.parent = source;
  m.depth = 0;
  members_.try_emplace(source, std::move(m));
}

void GroupTree::file_by_depth(Id node, int depth) {
  const auto d = static_cast<std::size_t>(depth);
  if (depth_start_.size() < d + 2) {
    depth_start_.resize(d + 2, by_depth_.size());
  }
  by_depth_.insert(std::lower_bound(by_depth_.begin() + depth_start_[d],
                                    by_depth_.begin() + depth_start_[d + 1],
                                    node),
                   node);
  for (std::size_t k = d + 1; k < depth_start_.size(); ++k) ++depth_start_[k];
}

void GroupTree::unfile_by_depth(Id node, int depth) {
  const auto d = static_cast<std::size_t>(depth);
  const auto last = by_depth_.begin() + depth_start_[d + 1];
  const auto it =
      std::lower_bound(by_depth_.begin() + depth_start_[d], last, node);
  assert(it != last && *it == node && "member missing from depth index");
  by_depth_.erase(it);
  for (std::size_t k = d + 1; k < depth_start_.size(); ++k) --depth_start_[k];
  // Drop emptied deepest runs; depth 0 always holds the source.
  while (depth_start_.size() > 2 &&
         depth_start_.back() == depth_start_[depth_start_.size() - 2]) {
    depth_start_.pop_back();
  }
}

void GroupTree::add(Id node, Id parent) {
  assert(!members_.contains(node) && "duplicate join");
  auto pit = members_.find(parent);
  assert(pit != members_.end() && "parent is not a member");
  Member m;
  m.parent = parent;
  m.depth = pit->second.depth + 1;
  const int depth = m.depth;
  members_.try_emplace(node, std::move(m));
  // members_.find may have been invalidated by the insert above.
  std::vector<Id>& kids = members_.at(parent).children;
  kids.insert(std::upper_bound(kids.begin(), kids.end(), node), node);
  sorted_.insert(std::lower_bound(sorted_.begin(), sorted_.end(), node),
                 node);
  file_by_depth(node, depth);
}

void GroupTree::erase_leaf(Id node) {
  auto it = members_.find(node);
  assert(it != members_.end() && "erase of a non-member");
  assert(it->second.children.empty() && "erase of an interior member");
  assert(node != source_ && "the source leaves by destroying the group");
  const Id parent = it->second.parent;
  unfile_by_depth(node, it->second.depth);
  std::vector<Id>& kids = members_.at(parent).children;
  kids.erase(std::find(kids.begin(), kids.end(), node));
  members_.erase(node);
  sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(), node));
}

void GroupTree::set_parent(Id node, Id new_parent) {
  Member& m = members_.at(node);
  assert(node != source_);
  const Id old_parent = m.parent;
  if (old_parent == new_parent) return;
  std::vector<Id>& old_kids = members_.at(old_parent).children;
  old_kids.erase(std::find(old_kids.begin(), old_kids.end(), node));
  std::vector<Id>& new_kids = members_.at(new_parent).children;
  new_kids.insert(std::upper_bound(new_kids.begin(), new_kids.end(), node),
                  node);
  members_.at(node).parent = new_parent;
  // The whole subtree moves by the same number of levels; re-file each
  // moved member under its new depth.
  const int shift =
      members_.at(new_parent).depth + 1 - members_.at(node).depth;
  if (shift == 0) return;
  for (Id x : subtree(node)) {
    int& depth = members_.at(x).depth;
    unfile_by_depth(x, depth);
    depth += shift;
    file_by_depth(x, depth);
  }
}

std::vector<Id> GroupTree::subtree(Id node) const {
  std::vector<Id> out{node};
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Member& m = members_.at(out[i]);
    out.insert(out.end(), m.children.begin(), m.children.end());
  }
  return out;
}

MulticastTree GroupTree::to_multicast_tree() const {
  MulticastTree tree(source_);
  // BFS from the source so every parent is recorded before its children
  // (MulticastTree::record requires that ordering for depth tracking).
  std::vector<Id> frontier{source_};
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const Member& m = members_.at(frontier[i]);
    for (Id c : m.children) {
      tree.record(frontier[i], c, members_.at(c).depth);
      frontier.push_back(c);
    }
  }
  return tree;
}

std::vector<std::string> GroupTree::check(
    const CapacityLedger& ledger) const {
  std::vector<std::string> issues;
  auto flag = [&](Id node, const std::string& what) {
    issues.push_back("group " + std::to_string(id_) + " node " +
                     std::to_string(node) + ": " + what);
  };

  if (!members_.contains(source_)) {
    flag(source_, "source is not a member");
    return issues;
  }
  for (Id id : sorted_members()) {
    const Member& m = members_.at(id);
    if (id == source_) {
      if (m.depth != 0) flag(id, "source depth != 0");
      if (m.parent != id) flag(id, "source parent != self");
    } else {
      auto pit = members_.find(m.parent);
      if (pit == members_.end()) {
        flag(id, "parent " + std::to_string(m.parent) + " not a member");
        continue;
      }
      if (m.depth != pit->second.depth + 1) {
        flag(id, "depth " + std::to_string(m.depth) + " != parent depth + 1");
      }
      const std::vector<Id>& kids = pit->second.children;
      if (std::find(kids.begin(), kids.end(), id) == kids.end()) {
        flag(id, "missing from parent's child list");
      }
    }
    if (!std::is_sorted(m.children.begin(), m.children.end())) {
      flag(id, "children not in ascending order");
    }
    for (Id c : m.children) {
      auto cit = members_.find(c);
      if (cit == members_.end()) {
        flag(id, "child " + std::to_string(c) + " not a member");
      } else if (cit->second.parent != id) {
        flag(id, "child " + std::to_string(c) + " has a different parent");
      }
    }
    const std::uint32_t fanout =
        static_cast<std::uint32_t>(m.children.size());
    const std::uint32_t debited = ledger.used(id, id_);
    if (fanout != debited) {
      flag(id, "fanout " + std::to_string(fanout) + " != ledger debits " +
                   std::to_string(debited));
    }
  }
  // Reachability doubles as the acyclicity check: every member on a
  // cycle is unreachable from the source.
  if (subtree(source_).size() != members_.size()) {
    flag(source_, "tree is not fully reachable from the source");
  }
  // Both member indexes list every member exactly once, in order.
  const auto is_member = [&](Id m) { return members_.contains(m); };
  if (sorted_.size() != members_.size() ||
      std::adjacent_find(sorted_.begin(), sorted_.end(),
                         std::greater_equal<>()) != sorted_.end() ||
      !std::all_of(sorted_.begin(), sorted_.end(), is_member)) {
    flag(source_, "ascending member index out of date");
  }
  bool by_depth_ok = by_depth_.size() == members_.size() &&
                     depth_start_.size() >= 2 && depth_start_[0] == 0 &&
                     depth_start_.back() == by_depth_.size() &&
                     std::is_sorted(depth_start_.begin(), depth_start_.end());
  for (std::size_t d = 0; by_depth_ok && d + 1 < depth_start_.size(); ++d) {
    for (std::size_t i = depth_start_[d];
         by_depth_ok && i < depth_start_[d + 1]; ++i) {
      auto it = members_.find(by_depth_[i]);
      by_depth_ok = it != members_.end() &&
                    it->second.depth == static_cast<int>(d) &&
                    (i == depth_start_[d] || by_depth_[i - 1] < by_depth_[i]);
    }
  }
  if (!by_depth_ok) flag(source_, "depth-ordered member index out of date");
  return issues;
}

}  // namespace cam::session
