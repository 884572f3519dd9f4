#include "overlay/ring_net.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace cam {

RingOverlayNet::RingOverlayNet(RingSpace ring, Network& net)
    : ring_(ring), net_(net) {}

RingOverlayNet::BaseState& RingOverlayNet::base(Id id) {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  return it->second;
}

const RingOverlayNet::BaseState& RingOverlayNet::base(Id id) const {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  return it->second;
}

std::vector<Id> RingOverlayNet::members_sorted() const {
  std::vector<Id> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, st] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<Id> RingOverlayNet::predecessor(Id id) const {
  const auto& st = base(id);
  if (st.pred && alive(*st.pred)) return st.pred;
  return std::nullopt;
}

Id RingOverlayNet::live_successor(const BaseState& st) const {
  for (Id s : st.succ_list) {
    if (alive(s)) return s;
  }
  return st.self;
}

void RingOverlayNet::bootstrap(Id id, NodeInfo info) {
  if (info.capacity < min_capacity()) {
    throw std::invalid_argument("capacity below the protocol minimum");
  }
  if (nodes_.contains(id)) {
    throw std::invalid_argument("bootstrap: id already present");
  }
  BaseState st;
  st.self = id;
  st.info = info;
  st.pred = id;
  st.succ_list = {id};
  nodes_.emplace(id, std::move(st));
  init_entries(id, id);
}

bool RingOverlayNet::join(Id id, NodeInfo info, Id via) {
  if (info.capacity < min_capacity()) return false;
  if (nodes_.contains(id) || !alive(via)) return false;
  LookupResult owner = lookup(via, id);
  if (!owner.ok) return false;

  BaseState st;
  st.self = id;
  st.info = info;
  st.pred = std::nullopt;
  st.succ_list = {owner.owner};
  nodes_.emplace(id, std::move(st));
  init_entries(id, owner.owner);
  net_.send(id, owner.owner, 64, [] {}, MsgClass::kControl);
  return true;
}

bool RingOverlayNet::leave(Id id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return false;
  BaseState& st = it->second;
  Id succ = live_successor(st);
  std::optional<Id> pred =
      (st.pred && alive(*st.pred) && *st.pred != id) ? st.pred : std::nullopt;
  if (succ != id && pred) {
    BaseState& ss = base(succ);
    ss.pred = *pred;
    BaseState& ps = base(*pred);
    std::erase(ps.succ_list, id);
    if (ps.succ_list.empty() || ps.succ_list.front() != succ) {
      ps.succ_list.insert(ps.succ_list.begin(), succ);
    }
    net_.send(id, succ, 64, [] {}, MsgClass::kControl);
    net_.send(id, *pred, 64, [] {}, MsgClass::kControl);
  }
  drop_entries(id);
  nodes_.erase(it);
  return true;
}

bool RingOverlayNet::fail(Id id) {
  if (!nodes_.contains(id)) return false;
  drop_entries(id);
  nodes_.erase(id);
  return true;
}

void RingOverlayNet::notify(BaseState& succ_state, Id candidate) {
  if (candidate == succ_state.self) return;
  if (!succ_state.pred || !alive(*succ_state.pred) ||
      *succ_state.pred == succ_state.self ||
      ring_.in_oo(candidate, *succ_state.pred, succ_state.self)) {
    succ_state.pred = candidate;
  }
}

void RingOverlayNet::refresh_succ_list(BaseState& st) {
  Id succ = live_successor(st);
  std::vector<Id> fresh;
  fresh.push_back(succ);
  if (succ != st.self) {
    const BaseState& ss = base(succ);
    for (Id s : ss.succ_list) {
      if (fresh.size() >= kSuccessorListLen) break;
      if (s == st.self) break;  // lapped the ring
      if (alive(s) && std::find(fresh.begin(), fresh.end(), s) == fresh.end())
        fresh.push_back(s);
    }
  }
  st.succ_list = std::move(fresh);
}

void RingOverlayNet::stabilize_all() {
  // Iterate over a snapshot: stabilization mutates peers' state.
  for (Id id : members_sorted()) {
    if (!alive(id)) continue;
    BaseState& st = base(id);
    Id succ = live_successor(st);
    // Successor repair from table references: a live entry strictly
    // inside (id, succ) is a closer successor than anything the list
    // knows — this also re-merges rings that churn split apart.
    if (auto entry = closest_live_entry_after(id);
        entry && *entry != id &&
        (succ == id || ring_.in_oo(*entry, id, succ))) {
      st.succ_list.insert(st.succ_list.begin(), *entry);
      succ = *entry;
    }
    if (succ == id) {
      // A node that believes it is alone adopts its predecessor as
      // successor once a joiner's notify has arrived — this closes the
      // two-node ring that every bootstrap goes through.
      if (st.pred && alive(*st.pred) && *st.pred != id) {
        st.succ_list = {*st.pred};
        succ = *st.pred;
      } else {
        st.succ_list = {id};
        st.pred = id;
        continue;
      }
    }
    net_.send(id, succ, 64, [] {}, MsgClass::kMaintenance);
    BaseState& ss = base(succ);
    if (ss.pred && alive(*ss.pred) && *ss.pred != id &&
        ring_.in_oo(*ss.pred, id, succ)) {
      succ = *ss.pred;  // a closer successor surfaced
    }
    if (st.succ_list.empty() || st.succ_list.front() != succ) {
      st.succ_list.insert(st.succ_list.begin(), succ);
    }
    notify(base(succ), id);
    refresh_succ_list(st);
  }
}

void RingOverlayNet::fix_neighbors_all() {
  for (Id id : members_sorted()) {
    if (!alive(id)) continue;
    fix_entries(id);
  }
}

std::uint64_t RingOverlayNet::state_digest() const {
  // Order-independent fold (per-node FNV chain, XOR-combined across
  // nodes) so the node-table iteration order cannot matter.
  std::uint64_t acc = 0;
  for (const auto& [id, st] : nodes_) {
    std::uint64_t h = 1469598103934665603ULL ^ id;
    h = h * 1099511628211ULL + (st.pred ? *st.pred + 1 : 0);
    for (Id s : st.succ_list) h = h * 1099511628211ULL + s;
    h = h * 1099511628211ULL + entries_digest(id);
    acc ^= h;
  }
  return acc;
}

int RingOverlayNet::converge(int max_rounds) {
  // Phase 1: ring repair. Stabilize rounds are cheap (no lookups), and
  // under mass joins a chain of m concurrent joiners needs O(m) rounds to
  // unknot — run them to a pred/succ fixpoint before paying for any
  // neighbor-table refresh.
  auto ring_digest = [this] {
    std::uint64_t acc = 0;
    for (const auto& [id, st] : nodes_) {
      std::uint64_t h = 1469598103934665603ULL ^ id;
      h = h * 1099511628211ULL + (st.pred ? *st.pred + 1 : 0);
      for (Id s : st.succ_list) h = h * 1099511628211ULL + s;
      acc ^= h;
    }
    return acc;
  };
  const int ring_budget = max_rounds * 16 + static_cast<int>(nodes_.size());
  std::uint64_t before_ring = ring_digest();
  for (int r = 0; r < ring_budget; ++r) {
    stabilize_all();
    std::uint64_t now = ring_digest();
    if (now == before_ring) break;
    before_ring = now;
  }
  // Phase 2: routing entries via LOOKUP, to a full-state fixpoint.
  for (int round = 1; round <= max_rounds; ++round) {
    std::uint64_t before = state_digest();
    stabilize_all();
    fix_neighbors_all();
    if (state_digest() == before) return round;
  }
  return max_rounds + 1;
}

std::vector<Id> RingOverlayNet::isolated_members() const {
  std::vector<Id> out;
  if (nodes_.size() <= 1) return out;
  for (const auto& [id, st] : nodes_) {
    bool pred_live = st.pred && *st.pred != id && alive(*st.pred);
    if (pred_live) continue;
    if (live_successor(st) != id) continue;
    if (closest_live_entry_after(id)) continue;
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Id> RingOverlayNet::rejoin_isolated(Id via) {
  std::vector<Id> rejoined;
  if (!alive(via)) return rejoined;
  for (Id id : isolated_members()) {
    if (id == via) continue;
    NodeInfo info = base(id).info;
    fail(id);
    if (join(id, info, via)) rejoined.push_back(id);
  }
  return rejoined;
}

std::vector<std::vector<Id>> RingOverlayNet::ring_partitions() const {
  // Color each node by the successor-pointer cycle it drains into.
  std::unordered_map<Id, int> color;
  color.reserve(nodes_.size());
  int next_color = 0;
  for (const auto& [start, st_unused] : nodes_) {
    (void)st_unused;
    if (color.contains(start)) continue;
    // Walk successors, marking the path with a provisional color.
    std::vector<Id> path;
    const int provisional = -1 - next_color;
    Id cur = start;
    int final_color;
    while (true) {
      auto it = color.find(cur);
      if (it != color.end()) {
        // Hit a known node: either an earlier walk (its color wins) or
        // our own provisional path (a fresh cycle).
        final_color = it->second < 0 ? next_color++ : it->second;
        break;
      }
      color[cur] = provisional;
      path.push_back(cur);
      cur = live_successor(base(cur));
    }
    for (Id id : path) color[id] = final_color;
  }
  std::vector<std::vector<Id>> groups(static_cast<std::size_t>(next_color));
  for (const auto& [id, c] : color) {
    groups[static_cast<std::size_t>(c)].push_back(id);
  }
  for (auto& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  return groups;
}

std::vector<Id> RingOverlayNet::heal_partitions(Id trusted) {
  std::vector<Id> rejoined;
  if (!alive(trusted)) return rejoined;
  for (const auto& group : ring_partitions()) {
    if (std::binary_search(group.begin(), group.end(), trusted)) continue;
    for (Id id : group) {
      NodeInfo info = base(id).info;
      fail(id);
      if (join(id, info, trusted)) rejoined.push_back(id);
    }
  }
  return rejoined;
}

void RingOverlayNet::oracle_fill() {
  NodeDirectory dir(ring_);
  for (const auto& [id, st] : nodes_) dir.add(id, st.info);
  for (auto& [id, st] : nodes_) {
    st.pred = dir.predecessor_of(id);
    st.succ_list.clear();
    Id s = *dir.successor_of(id);
    while (st.succ_list.size() < kSuccessorListLen && s != id) {
      st.succ_list.push_back(s);
      s = *dir.successor_of(s);
    }
    if (st.succ_list.empty()) st.succ_list.push_back(id);
  }
  for (auto& [id, st] : nodes_) oracle_fill_entries(id, dir);
}

}  // namespace cam
