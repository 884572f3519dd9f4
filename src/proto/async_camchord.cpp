#include "proto/async_camchord.h"

#include <algorithm>
#include <cassert>

#include "camchord/neighbor_math.h"

namespace cam::proto {

std::vector<Id> AsyncCamChordNode::neighbor_idents() const {
  return camchord::neighbor_identifiers(net_.ring(), info_.capacity, self_);
}

ClosestStepRep AsyncCamChordNode::closest_step(
    const ClosestStepReq& req) const {
  const RingSpace& ring = net_.ring();
  const Id target = req.target;
  auto excluded = [&](Id n) {
    return std::find(req.excluded.begin(), req.excluded.end(), n) !=
           req.excluded.end();
  };

  if (target == self_) return ClosestStepRep{true, self_, req.cursor};
  // Lines 1-2 of the paper's LOOKUP, answered from local state.
  if (pred_ && (*pred_ == self_ || ring.in_oc(target, *pred_, self_))) {
    return ClosestStepRep{true, self_, req.cursor};
  }
  // Successor region check against the first non-suspected list entry —
  // a dead front entry must not be handed out as an owner.
  std::optional<Id> live_succ;
  for (Id s : succ_list_) {
    if (!suspected(s)) {
      live_succ = s;
      break;
    }
  }
  if (live_succ) {
    Id succ = *live_succ;
    if (succ == self_ || ring.in_oc(target, self_, succ)) {
      return ClosestStepRep{true, succ == self_ ? self_ : succ, req.cursor};
    }
  }
  // Greedy forward: the closest preceding reference the querier has not
  // excluded — neighbor entries first, successor list as fallback pool.
  std::optional<Id> best;
  std::uint64_t best_d = 0;
  std::uint64_t dt = ring.clockwise(self_, target);
  auto consider = [&](Id cand) {
    if (cand == self_ || excluded(cand) || suspected(cand)) return;
    std::uint64_t d = ring.clockwise(self_, cand);
    if (d == 0 || d >= dt) return;
    if (d > best_d) {
      best_d = d;
      best = cand;
    }
  };
  for (Id e : entries_) consider(e);
  for (Id s : succ_list_) consider(s);
  if (best) return ClosestStepRep{false, *best, req.cursor};
  for (Id s : succ_list_) {
    if (!excluded(s) && !suspected(s) && s != self_) {
      return ClosestStepRep{false, s, req.cursor};
    }
  }
  // Dead end: nothing usable; claim conservatively so the walk ends.
  return ClosestStepRep{true, self_, req.cursor};
}

void AsyncCamChordNode::forward_multicast(const MulticastData& msg) {
  const RingSpace& ring = net_.ring();
  if (msg.bound == self_) return;
  camchord::select_children_into(ring, info_.capacity, self_, msg.bound,
                                 scratch_children_);
  for (const camchord::ChildAssignment& a : scratch_children_) {
    std::optional<Id> child;
    if (a.slot == 0) {
      if (auto s = successor(); s && *s != self_) child = s;
    } else if (a.slot < idents_.size()) {
      // Entry for the exact neighbor identifier: idents_ is
      // neighbor_identifiers' list, so a.slot indexes it (and entries_).
      // Both stay empty until the node joins.
      assert(idents_[a.slot] == a.identifier);
      child = entries_[a.slot];
    }
    if (!child || *child == self_ || !ring.in_oc(*child, self_, a.bound)) {
      continue;
    }
    send_multicast(*child,
                   MulticastData{msg.stream_id, a.bound, msg.depth + 1,
                                 kMulticastPayloadBytes});
  }
}

}  // namespace cam::proto
