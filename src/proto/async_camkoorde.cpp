#include "proto/async_camkoorde.h"

#include <algorithm>

#include "camkoorde/neighbor_math.h"

namespace cam::proto {

std::vector<Id> AsyncCamKoordeNode::neighbor_idents() const {
  return camkoorde::shift_identifiers(net_.ring(), info_.capacity, self_);
}

ClosestStepRep AsyncCamKoordeNode::closest_step(
    const ClosestStepReq& req) const {
  const RingSpace& ring = net_.ring();
  const Id target = req.target;
  auto excluded = [&](Id n) {
    return std::find(req.excluded.begin(), req.excluded.end(), n) !=
           req.excluded.end();
  };

  if (target == self_) return ClosestStepRep{true, self_, req.cursor};
  if (pred_ && (*pred_ == self_ || ring.in_oc(target, *pred_, self_))) {
    return ClosestStepRep{true, self_, req.cursor};
  }
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

  // Imaginary-identifier transform (Section 4.2): consume the widest
  // available group's worth of target bits; forward along our own link
  // for that derivation. The physical hop and the cursor's responsible
  // node can drift on a sparse ring; the gap halves per shift, and the
  // region checks above terminate the walk.
  auto ring_step = [&]() -> ClosestStepRep {
    for (Id s : succ_list_) {
      if (!excluded(s) && !suspected(s) && s != self_) {
        return ClosestStepRep{false, s, req.cursor};
      }
    }
    return ClosestStepRep{true, self_, req.cursor};  // dead end
  };
  if (ps_common_bits(ring, req.cursor, target) >= ring.bits()) {
    // Cursor already equals the target: only ring steps remain.
    return ring_step();
  }
  camkoorde::Derivation d =
      camkoorde::choose_derivation(ring, info_.capacity, req.cursor, target);
  Id next_cursor = camkoorde::apply_derivation(ring, req.cursor, d);
  Id own_ident = ring.shift_in_high(self_, d.shift, d.high);
  auto it = std::find(idents_.begin(), idents_.end(), own_ident);
  if (it != idents_.end()) {
    Id entry = entries_[static_cast<std::size_t>(it - idents_.begin())];
    if (entry != self_ && !excluded(entry) && !suspected(entry)) {
      return ClosestStepRep{false, entry, next_cursor};
    }
  }
  // Link unusable: step along the ring without consuming target bits.
  return ring_step();
}

void AsyncCamKoordeNode::flood_neighbors() {
  auto& out = scratch_neighbors_;
  out.clear();
  out.reserve(entries_.size() + 2);
  auto push = [&](Id n) {
    if (n == self_ || suspected(n)) return;
    if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
  };
  if (pred_) push(*pred_);
  if (auto s = successor()) push(*s);
  for (Id e : entries_) push(e);
}

void AsyncCamKoordeNode::forward_multicast(const MulticastData& msg) {
  // Section 4.3: forward to every neighbor "except those that have
  // received or are receiving" — checked with a short control packet
  // before shipping the payload.
  MulticastData fwd{msg.stream_id, 0, msg.depth + 1,
                    kMulticastPayloadBytes};
  flood_neighbors();
  for (Id y : scratch_neighbors_) {
    call(
        y, DupCheckReq{msg.stream_id},
        [this, y, fwd](const ReplyPayload& payload) {
          if (!alive_) return;
          if (std::get<DupCheckRep>(payload).seen) {
            // Forwarding suppressed by the paper's "received or is
            // receiving" check — the payload never ships.
            tel().trace(telemetry::EventType::kDupSuppress,
                        net_.sim().now(), self_, y, fwd.stream_id);
            tel().count_node("mc.dupcheck_suppressed", self_);
            return;
          }
          send_multicast(y, fwd);
        },
        [this, y, fwd] {
          // Dup-check timeout: the neighbor may be dead — or merely on a
          // lossy link. With repair on, ship anyway: the reliable path's
          // own give-up hands persistent failures to repair_orphan, and
          // the receiver's dedupe absorbs the copy if the neighbor was
          // fine after all. Without repair, skip it (pre-repair
          // semantics: it is probably being suspected).
          if (alive_ && net_.config().repair) send_multicast(y, fwd);
        });
  }
}

}  // namespace cam::proto
