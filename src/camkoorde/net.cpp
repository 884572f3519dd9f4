#include "camkoorde/net.h"

#include <algorithm>
#include <cassert>

namespace cam::camkoorde {

std::uint32_t CamKoordeNet::row_at(Id id) const {
  std::uint32_t row = tindex_.find(id);
  assert(row != FlatIndex<Id>::kNoRow);
  return row;
}

void CamKoordeNet::init_entries(Id id, Id initial_owner) {
  std::vector<Id> idents = shift_identifiers(ring_, info(id).capacity, id);
  auto [row, inserted] = tindex_.insert(id);
  if (inserted) spans_.emplace_back();
  Span s = idents_arena_.append(idents.begin(), idents.end());
  Span e = entries_arena_.append_fill(idents.size(), initial_owner);
  assert(s.off == e.off && s.len == e.len);  // lockstep arenas
  (void)e;
  spans_[row] = s;
}

void CamKoordeNet::drop_entries(Id id) {
  auto [erased, moved] = tindex_.erase(id);
  if (erased == FlatIndex<Id>::kNoRow) return;
  if (moved != FlatIndex<Id>::kNoRow) spans_[erased] = spans_[moved];
  spans_.pop_back();
}

void CamKoordeNet::fix_entries(Id id) {
  const std::uint32_t row = row_at(id);
  const Span& s = spans_[row];
  const Id* idents = idents_arena_.begin(s);
  Id* entries = entries_arena_.begin(s);
  for (std::size_t idx = 0; idx < s.len; ++idx) {
    LookupResult r = lookup(id, idents[idx]);
    if (r.ok) entries[idx] = r.owner;
    net_.send(id, r.ok ? r.owner : id, 64, [] {}, MsgClass::kMaintenance);
  }
}

void CamKoordeNet::oracle_fill_entries(Id id, const NodeDirectory& dir) {
  const Span& s = spans_[row_at(id)];
  const Id* idents = idents_arena_.begin(s);
  Id* entries = entries_arena_.begin(s);
  for (std::size_t idx = 0; idx < s.len; ++idx) {
    entries[idx] = *dir.responsible(idents[idx]);
  }
}

std::uint64_t CamKoordeNet::entries_digest(Id id) const {
  std::uint64_t h = 1469598103934665603ULL;
  for (Id e : entries(id)) h = h * 1099511628211ULL + e;
  return h;
}

std::optional<Id> CamKoordeNet::closest_live_entry_after(Id id) const {
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

std::vector<Id> CamKoordeNet::neighbors_of(Id id) const {
  std::vector<Id> out;
  neighbors_into(id, out);
  return out;
}

void CamKoordeNet::neighbors_into(Id id, std::vector<Id>& out) const {
  const BaseState& st = base(id);
  std::span<const Id> es = entries(id);
  out.clear();
  out.reserve(es.size() + 2);
  auto push = [&](Id n) {
    if (n == id || !alive(n)) return;
    if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
  };
  if (st.pred && alive(*st.pred)) push(*st.pred);
  push(live_successor(st));
  for (Id e : es) push(e);
}

LookupResult CamKoordeNet::lookup(Id from, Id target) const {
  LookupResult res;
  if (!alive(from)) return res;
  res.path.push_back(from);

  // Imaginary-cursor routing (Section 4.2): the cursor is transformed
  // into the target one group-derivation per step; the request sits at
  // the node responsible for the cursor. The node's *own* table entry
  // for the chosen derivation lands near the derived cursor (the cursor
  // stays inside the node's region, so their right-shifts agree up to a
  // short predecessor walk). Any anomaly — dead entry, walk budget
  // exhausted — drops the lookup to a plain successor walk, which always
  // terminates via the region checks.
  Id x = from;
  Id cursor = from;
  bool ring_walk = false;
  for (std::size_t hop = 0; hop <= kSyncMaxLookupHops; ++hop) {
    const BaseState& st = base(x);
    Id succ = live_successor(st);
    const bool has_pred = st.pred && alive(*st.pred);
    const Id pred = has_pred ? *st.pred : x;
    // Lines 1-2: k in (predecessor(x), x].
    if (has_pred && (pred == x || ring_.in_oc(target, pred, x))) {
      res.owner = x;
      res.ok = true;
      return res;
    }
    // Lines 3-4: k in (x, successor(x)].
    if (succ == x || ring_.in_oc(target, x, succ)) {
      res.owner = succ == x ? x : succ;
      res.ok = true;
      return res;
    }
    if (ring_walk || ps_common_bits(ring_, cursor, target) >= ring_.bits()) {
      // Degraded mode, or the cursor already equals the target but the
      // region checks have not fired (stale ring state): walk the ring.
      x = succ;
      res.path.push_back(x);
      continue;
    }

    Derivation d =
        choose_derivation(ring_, st.info.capacity, cursor, target);
    Id next_cursor = apply_derivation(ring_, cursor, d);
    // The node's own link for this derivation.
    Id own_ident = ring_.shift_in_high(x, d.shift, d.high);
    const Span& span = spans_[row_at(x)];
    const Id* xidents = idents_arena_.begin(span);
    const Id* xentries = entries_arena_.begin(span);
    std::optional<Id> next;
    for (std::size_t idx = 0; idx < span.len; ++idx) {
      if (xidents[idx] == own_ident) {
        if (alive(xentries[idx])) next = xentries[idx];
        break;
      }
    }
    if (!next) {
      ring_walk = true;  // missing/dead link: degrade rather than guess
      continue;
    }
    // Predecessor-walk from the entry to the node responsible for the
    // derived cursor (the entry covers x's derivation, which sits at or
    // clockwise-after the cursor's derivation).
    Id y = *next;
    std::size_t walk_budget = kSuccessorListLen * 4;
    while (walk_budget-- > 0) {
      const BaseState& ys = base(y);
      const bool y_has_pred = ys.pred && alive(*ys.pred);
      if (!y_has_pred || *ys.pred == y ||
          ring_.in_oc(next_cursor, *ys.pred, y)) {
        break;  // y is responsible for the cursor (or best knowledge)
      }
      y = *ys.pred;
    }
    cursor = next_cursor;
    if (y != x) {
      x = y;
      res.path.push_back(x);
    }
  }
  res.ok = false;
  return res;
}

MulticastTree CamKoordeNet::multicast(Id source) {
  MulticastTree tree(source);
  if (!alive(source)) return tree;
  tree.reserve(size());

  // "Is receiving" check support: targets with an in-flight delivery.
  // Frame-local (the frame outlives sim().run()), so event closures hold
  // plain references — no shared_ptr churn, no per-event allocation; the
  // neighbor scan reuses one scratch buffer the same way.
  FlatSet<Id> in_flight;
  in_flight.reserve(size());
  std::vector<Id> scratch;

  auto forward_from = [this, &tree, &in_flight, &scratch](auto&& self, Id x,
                                                          int depth) -> void {
    if (!alive(x)) return;
    neighbors_into(x, scratch);
    for (Id y : scratch) {
      if (tree.delivered(y) || in_flight.contains(y)) {
        tree.note_suppressed();
        // The check itself costs a short control packet (Section 4.3).
        net_.send(x, y, 16, [] {}, MsgClass::kControl);
        continue;
      }
      in_flight.insert(y);
      net_.send(
          x, y, kMulticastPayloadBytes,
          [this, &tree, &in_flight, &self, x, y, depth] {
            in_flight.erase(y);
            if (!alive(y)) return;
            if (!tree.record(x, y, depth + 1, net_.sim().now())) return;
            self(self, y, depth + 1);
          },
          MsgClass::kData);
    }
  };

  net_.sim().after(0, [&] { forward_from(forward_from, source, 0); });
  net_.sim().run();
  return tree;
}

}  // namespace cam::camkoorde
