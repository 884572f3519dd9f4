#include "camchord/net.h"

#include <algorithm>
#include <cassert>

namespace cam::camchord {

std::uint32_t CamChordNet::row_at(Id id) const {
  std::uint32_t row = tindex_.find(id);
  assert(row != FlatIndex<Id>::kNoRow);
  return row;
}

void CamChordNet::init_entries(Id id, Id initial_owner) {
  const std::uint32_t cap = info(id).capacity;
  auto [it, fresh_cap] = offset_set_by_cap_.try_emplace(cap, 0u);
  if (fresh_cap) {
    // First node of this capacity class: materialize the offset ladder
    // (identical for every node with capacity `cap` on this ring).
    std::vector<std::uint64_t> offs;
    for (Id ident : neighbor_identifiers(ring_, cap, id)) {
      offs.push_back(ring_.clockwise(id, ident));
    }
    it->second = static_cast<std::uint32_t>(offset_sets_.size());
    offset_sets_.push_back(std::move(offs));
  }
  const std::uint32_t set_idx = it->second;

  auto [row, inserted] = tindex_.insert(id);
  if (inserted) {
    spans_.emplace_back();
    offset_set_.emplace_back();
  }
  offset_set_[row] = set_idx;
  spans_[row] = entries_arena_.append_fill(offset_sets_[set_idx].size(),
                                           initial_owner);
}

void CamChordNet::drop_entries(Id id) {
  auto [erased, moved] = tindex_.erase(id);
  if (erased == FlatIndex<Id>::kNoRow) return;
  if (moved != FlatIndex<Id>::kNoRow) {
    spans_[erased] = spans_[moved];
    offset_set_[erased] = offset_set_[moved];
  }
  spans_.pop_back();
  offset_set_.pop_back();
}

void CamChordNet::fix_entries(Id id) {
  const std::uint32_t row = row_at(id);
  const std::vector<std::uint64_t>& offs = offsets_of(row);
  Id* entries = entries_arena_.begin(spans_[row]);
  for (std::size_t idx = 0; idx < offs.size(); ++idx) {
    Id ident = ring_.add(id, offs[idx]);
    LookupResult r = lookup(id, ident);
    if (r.ok) entries[idx] = r.owner;
    net_.send(id, r.ok ? r.owner : id, 64, [] {}, MsgClass::kMaintenance);
  }
}

void CamChordNet::oracle_fill_entries(Id id, const NodeDirectory& dir) {
  const std::uint32_t row = row_at(id);
  const std::vector<std::uint64_t>& offs = offsets_of(row);
  Id* entries = entries_arena_.begin(spans_[row]);
  for (std::size_t idx = 0; idx < offs.size(); ++idx) {
    entries[idx] = *dir.responsible(ring_.add(id, offs[idx]));
  }
}

std::uint64_t CamChordNet::entries_digest(Id id) const {
  std::uint64_t h = 1469598103934665603ULL;
  for (Id e : entries(id)) h = h * 1099511628211ULL + e;
  return h;
}

std::optional<Id> CamChordNet::closest_live_entry_after(Id id) const {
  std::optional<Id> best;
  std::uint64_t best_d = UINT64_MAX;
  for (Id e : entries(id)) {
    if (e == id || !alive(e)) continue;
    std::uint64_t d = ring_.clockwise(id, e);
    if (d < best_d) {
      best_d = d;
      best = e;
    }
  }
  return best;
}

std::optional<Id> CamChordNet::table_resolve(Id x, Id ident) const {
  const std::uint32_t row = row_at(x);
  const std::vector<std::uint64_t>& offs = offsets_of(row);
  std::uint64_t off = ring_.clockwise(x, ident);
  auto it = std::lower_bound(offs.begin(), offs.end(), off);
  if (it == offs.end() || *it != off) return std::nullopt;
  Id entry = entries_arena_.begin(
      spans_[row])[static_cast<std::size_t>(it - offs.begin())];
  if (!alive(entry)) return std::nullopt;
  return entry;
}

std::optional<Id> CamChordNet::best_preceding_live(Id x, Id target) const {
  std::uint64_t dt = ring_.clockwise(x, target);
  std::optional<Id> best;
  std::uint64_t best_d = 0;
  for (Id e : entries(x)) {
    if (!alive(e)) continue;
    std::uint64_t de = ring_.clockwise(x, e);
    if (de == 0 || de >= dt) continue;  // not strictly inside (x, target)
    if (de > best_d) {
      best_d = de;
      best = e;
    }
  }
  return best;
}

LookupResult CamChordNet::lookup(Id from, Id target) const {
  LookupResult res;
  if (!alive(from)) return res;
  res.path.push_back(from);
  Id x = from;
  for (std::size_t hop = 0; hop <= kSyncMaxLookupHops; ++hop) {
    if (target == x) {
      res.owner = x;
      res.ok = true;
      return res;
    }
    const BaseState& st = base(x);
    Id succ = live_successor(st);
    // Lines 1-2: k in (x, successor(x)].
    if (succ == x || ring_.in_oc(target, x, succ)) {
      res.owner = succ == x ? x : succ;
      res.ok = true;
      return res;
    }
    // Lines 4-5: level and sequence number of k.
    auto [i, j] = level_seq(ring_, st.info.capacity, x, target);
    Id ident = neighbor_identifier(ring_, st.info.capacity, x, i, j);
    std::optional<Id> next = table_resolve(x, ident);
    if (next && *next != x && ring_.in_oc(target, x, *next)) {
      // Lines 6-7: the believed owner covers k. Verify with the entry's
      // own predecessor pointer (one control round-trip) before
      // answering, so a stale entry cannot yield a wrong owner.
      const BaseState& es = base(*next);
      if (es.pred && alive(*es.pred) &&
          ring_.in_oc(target, *es.pred, *next)) {
        res.owner = *next;
        res.ok = true;
        return res;
      }
      next.reset();  // stale: do not trust it as a forwarding hop either
    }
    if (!next || *next == x || !ring_.in_oo(*next, x, target)) {
      // Entry dead or useless: fall back to the closest live preceding
      // entry (a backup path — the robustness Section 2 credits
      // CAM-Chord's denser connectivity for), then to the successor.
      next = best_preceding_live(x, target);
      if (!next) next = succ;
    }
    x = *next;
    res.path.push_back(x);
  }
  res.ok = false;
  return res;
}

MulticastTree CamChordNet::multicast(Id source) {
  MulticastTree tree(source);
  if (!alive(source)) return tree;
  tree.reserve(size());

  // Event-driven recursive execution of x.MULTICAST(msg, k). `scratch`
  // lives in this frame (which outlives sim().run()), so the per-hop
  // child selection reuses one buffer instead of allocating per event.
  std::vector<ChildAssignment> scratch;
  auto run_at = [this, &tree, &scratch](auto&& self, Id x, Id k,
                                        int depth) -> void {
    if (!alive(x) || k == x) return;
    multicast_children(x, k, scratch, [&](Id ch, Id bound) {
      net_.send(
          x, ch, kMulticastPayloadBytes,
          [this, &tree, &self, x, ch, bound, depth] {
            if (!alive(ch)) return;  // failed while the message was in flight
            if (!tree.record(x, ch, depth + 1, net_.sim().now())) return;
            self(self, ch, bound, depth + 1);
          },
          MsgClass::kData);
    });
  };

  net_.sim().after(0, [&] { run_at(run_at, source, ring_.sub(source, 1), 0); });
  net_.sim().run();
  return tree;
}

}  // namespace cam::camchord
