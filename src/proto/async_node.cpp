#include "proto/async_node.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/rng.h"

namespace cam::proto {

namespace {

// Deterministic per-node, per-tick jitter.
SimTime jitter(Id self, std::uint64_t tick, SimTime max_ms) {
  std::uint64_t s = self * 0x9E3779B97F4A7C15ULL + tick;
  return static_cast<double>(splitmix64(s) >> 40) /
         static_cast<double>(1 << 24) * max_ms;
}

constexpr std::size_t kRpcBytes = 64;

// Maintenance timer periods; every tick also waits up to kTimerJitterMs
// of deterministic jitter, which desynchronizes the ring.
constexpr SimTime kStabilizePeriodMs = 500;
constexpr SimTime kFixPeriodMinMs = 50;  // tick-rate floor for huge tables
constexpr SimTime kPingPeriodMs = 700;   // predecessor liveness probe
constexpr SimTime kTimerJitterMs = 50;

constexpr int kLookupRestarts = 6;  // dead-hop retries before failing
constexpr std::size_t kMaxLookupHops = 128;

/// How long a peer stays suspected after kSuspectAfterStrikes timeouts.
/// Suspects are skipped by successor repair and lookup forwarding,
/// which prevents stale table entries from re-adopting dead nodes
/// every tick.
constexpr SimTime kSuspectTtlMs = 10'000;

/// Only streams seen within this window are advertised in anti-entropy
/// digests (clamped to half the dedupe horizon so an advertised stream
/// is never near eviction at the provider).
constexpr SimTime kRepairDigestWindowMs = 120'000;
/// Digest size cap: newest streams win when the window holds more.
constexpr std::size_t kRepairDigestMax = 32;
/// Per-stream cap on re-delegation attempts a single node may issue —
/// bounds repair recursion under pathological churn.
constexpr int kRepairRedelegateBudget = 16;

using telemetry::EventType;

}  // namespace

SimTime retry_backoff_ms(const AsyncConfig& cfg, Id self, std::uint64_t nonce,
                         int attempt) {
  double nominal = static_cast<double>(kBackoffBaseMs);
  const double cap = static_cast<double>(kBackoffCapMs);
  for (int k = 0; k < attempt && nominal < cap; ++k) {
    nominal *= kBackoffFactor;
  }
  nominal = std::min(nominal, cap);
  // Seeded jitter in [1 - j, 1 + j): same (node, nonce, attempt), same
  // delay — retry timing replays exactly under a fixed seed.
  std::uint64_t s = self * 0x9E3779B97F4A7C15ULL +
                    nonce * 0xBF58476D1CE4E5B9ULL +
                    static_cast<std::uint64_t>(attempt);
  const double u = static_cast<double>(splitmix64(s) >> 11) /
                   static_cast<double>(std::uint64_t{1} << 53);
  const double mult = 1.0 - cfg.backoff_jitter + 2.0 * cfg.backoff_jitter * u;
  return static_cast<SimTime>(nominal * mult);
}

SimTime retransmit_tail_ms(const AsyncConfig& cfg) {
  const int retries = std::max(cfg.multicast_retries, 0);
  // Every attempt times out (one rpc_timeout each) and every inter-
  // attempt backoff lands at its jittered maximum.
  double tail = static_cast<double>(kRpcTimeoutMs) * (retries + 1);
  double nominal = static_cast<double>(kBackoffBaseMs);
  const double cap = static_cast<double>(kBackoffCapMs);
  for (int k = 0; k < retries; ++k) {
    tail += std::min(nominal, cap) * (1.0 + cfg.backoff_jitter);
    nominal *= kBackoffFactor;
  }
  return static_cast<SimTime>(tail) + 1;
}

// ---------------------------------------------------------------------
// AsyncNodeBase
// ---------------------------------------------------------------------

AsyncNodeBase::AsyncNodeBase(AsyncOverlayNet& net, Id self, NodeInfo info)
    : net_(net), self_(self), info_(info) {}

std::optional<Id> AsyncNodeBase::successor() const {
  if (succ_list_.empty()) return std::nullopt;
  return succ_list_.front();
}

void AsyncNodeBase::boot_as_first() {
  joined_ = true;
  pred_ = self_;
  succ_list_ = {self_};
  idents_ = neighbor_idents();
  entries_.assign(idents_.size(), self_);
  tel().trace(EventType::kJoinDone, net_.sim().now(), self_);
  start_timers();
}

void AsyncNodeBase::boot_via(Id contact) {
  join_contact_ = contact;
  if (idents_.empty()) {
    join_started_ = net_.sim().now();
    idents_ = neighbor_idents();
    entries_.assign(idents_.size(), contact);
  }
  tel().trace(EventType::kJoinStart, net_.sim().now(), self_, contact);
  auto retry = [this] {
    tel().count_node("join.retries", self_);
    // Jittered exponential backoff: simultaneous joiners (or a wave of
    // rejoins after a heal) spread out instead of hammering the contact
    // in lockstep.
    net_.sim().after(
        retry_backoff_ms(net_.config(), self_, 0x6a6f696eULL,
                         join_attempts_++),
        [this] {
          if (alive_ && !joined_) boot_via(join_contact_);
        });
  };
  start_lookup(contact, self_, [this, retry](LookupResult& r) {
    if (!alive_ || joined_) return;
    // A node not yet in the ring cannot be its own successor: that
    // answer means the lookup fell back to our empty local state.
    if (r.ok && r.owner == self_) r.ok = false;
    if (!r.ok) {
      retry();  // contact unreachable or routing failed
      return;
    }
    // The lookup names a successor out of some peer's table — which may
    // be stale and point at a node that just crashed. Joining onto a
    // ghost would strand us (our only contact never answers, and nobody
    // in the ring ever hears of us), so confirm the owner is reachable
    // by fetching its successor list; that round trip also seeds our
    // list with live entries instead of a fragile singleton.
    call(
        r.owner, GetSuccListReq{},
        [this, owner = r.owner](const ReplyPayload& pl) {
          if (!alive_ || joined_) return;
          joined_ = true;
          const auto& lst = std::get<GetSuccListRep>(pl);
          succ_list_ = {owner};
          for (Id e : lst.succs) {
            if (succ_list_.size() >= kSuccessorListLen) break;
            if (e == self_) break;  // lapped the ring
            if (std::find(succ_list_.begin(), succ_list_.end(), e) ==
                succ_list_.end()) {
              succ_list_.push_back(e);
            }
          }
          for (auto& e : entries_) e = owner;  // seeded; fix ticks refine
          const SimTime now = net_.sim().now();
          tel().trace(EventType::kJoinDone, now, self_, owner,
                      static_cast<std::uint64_t>(now - join_started_));
          tel().count("join.completed");
          tel().observe("join.latency_ms", now - join_started_);
        },
        [this, retry] {
          if (alive_ && !joined_) retry();
        });
  });
  start_timers();
}

void AsyncNodeBase::start_timers() {
  auto schedule = [this](SimTime period, std::uint64_t salt, auto&& fn) {
    // Self-rescheduling tick. The function object holds only a weak
    // reference to itself (a strong capture would be a shared_ptr cycle
    // and leak); each *scheduled event* holds the strong reference, so
    // the chain stays alive exactly while a tick is pending and frees
    // itself once alive_ turns false.
    auto tick = std::make_shared<std::function<void(std::uint64_t)>>();
    std::weak_ptr<std::function<void(std::uint64_t)>> weak = tick;
    *tick = [this, period, salt, fn, weak](std::uint64_t n) {
      if (!alive_) return;
      fn();
      auto strong = weak.lock();
      if (!strong) return;
      net_.sim().after(
          period + jitter(self_, n * 2654435761ULL + salt, kTimerJitterMs),
          [strong, n] { (*strong)(n + 1); });
    };
    net_.sim().after(jitter(self_, salt, period), [tick] { (*tick)(0); });
  };
  schedule(kStabilizePeriodMs, 1, [this] { stabilize_tick(); });
  const auto table = static_cast<double>(std::max<std::size_t>(
      idents_.empty() ? neighbor_idents().size() : idents_.size(), 1));
  schedule(std::max(kEntryRefreshTargetMs / table, kFixPeriodMinMs), 2,
           [this] { fix_tick(); });
  schedule(kPingPeriodMs, 3, [this] { ping_tick(); });
}

void AsyncNodeBase::handle(Id from, Message msg) {
  if (!alive_) return;
  if (auto* req = std::get_if<RpcRequest>(&msg)) {
    RpcReply reply{req->id, answer(from, req->payload)};
    net_.bus().post(self_, from, std::move(reply), kRpcBytes,
                    MsgClass::kControl);
    return;
  }
  if (auto* rep = std::get_if<RpcReply>(&msg)) {
    auto it = pending_.find(rep->id);
    if (it == pending_.end()) return;  // late reply after timeout
    const Id to = it->second.to;
    ReplyFn on_reply = std::move(it->second.on_reply);
    pending_.erase(it);
    absolve(to);  // the peer answered — drop any stale suspicion
    on_reply(rep->payload);
    return;
  }
  if (std::get_if<NotifyMsg>(&msg)) {
    on_notify(from);
    return;
  }
  if (auto* data = std::get_if<MulticastData>(&msg)) {
    on_multicast(from, *data);
    return;
  }
}

bool AsyncNodeBase::suspected(Id peer) const {
  auto it = suspects_.find(peer);
  return it != suspects_.end() && net_.sim().now() < it->second;
}

void AsyncNodeBase::strike(Id peer) {
  const int strikes = ++strikes_[peer];
  tel().count_node("rpc.strikes", self_);
  if (strikes >= kSuspectAfterStrikes) {
    const SimTime until = net_.sim().now() + kSuspectTtlMs;
    suspects_[peer] = until;
    if (strikes == kSuspectAfterStrikes) {
      // Trace the transition, not every extension.
      tel().trace(EventType::kSuspect, net_.sim().now(), self_, peer,
                  static_cast<std::uint64_t>(until));
      tel().count_node("suspect.marked", self_);
    }
  }
}

void AsyncNodeBase::absolve(Id peer) {
  const bool was_suspected = suspects_.erase(peer) > 0;
  const bool had_strikes = strikes_.erase(peer) > 0;
  if (was_suspected || had_strikes) {
    tel().trace(EventType::kAbsolve, net_.sim().now(), self_, peer);
    if (was_suspected) tel().count_node("suspect.absolved", self_);
  }
}

bool AsyncNodeBase::note_stream(std::uint64_t stream_id, int depth,
                                std::uint32_t payload_bytes) {
  auto [it, fresh] = seen_streams_.try_emplace(stream_id);
  it->second.last_seen = net_.sim().now();  // refresh on every sighting
  if (fresh) {
    it->second.depth = depth;
    it->second.payload_bytes = payload_bytes;
  }
  return fresh;
}

void AsyncNodeBase::evict_seen_streams() {
  // Clamp to the retransmission tail: an id evicted while its transfer's
  // retransmissions are still in flight would be re-accepted by the
  // straggler, breaking exactly-once (regression: async_repair_test).
  const AsyncConfig& cfg = net_.config();
  const SimTime horizon =
      std::max(cfg.stream_seen_ttl_ms, retransmit_tail_ms(cfg));
  const SimTime now = net_.sim().now();
  seen_streams_.erase_if([&](const auto& kv) {
    return now - kv.second.last_seen > horizon;
  });
}

void AsyncNodeBase::call(Id to, RequestPayload req, ReplyFn on_reply,
                         TimeoutFn on_timeout, std::size_t bytes,
                         MsgClass cls) {
  RpcId id = next_rpc_++;
  tel().trace(EventType::kRpcIssue, net_.sim().now(), self_, to, id,
              static_cast<std::uint64_t>(cls));
  tel().count_node("rpc.issued", self_);
  pending_.emplace(id,
                   Pending{to, std::move(on_reply), std::move(on_timeout)});
  net_.bus().post(self_, to, RpcRequest{id, std::move(req)}, bytes, cls);
  net_.sim().after(kRpcTimeoutMs, [this, id, to] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // answered in time
    TimeoutFn on_to = std::move(it->second.on_timeout);
    pending_.erase(it);
    if (!alive_) return;
    // Trace the timeout before strike() so a kSuspect it triggers is
    // preceded by the full run of timeouts that earned it.
    tel().trace(EventType::kRpcTimeout, net_.sim().now(), self_, to, id,
                static_cast<std::uint64_t>(strikes_[to] + 1));
    tel().count_node("rpc.timeouts", self_);
    strike(to);
    if (on_to) on_to();
  });
}

ReplyPayload AsyncNodeBase::answer(Id from, const RequestPayload& req) {
  (void)from;
  if (auto* step = std::get_if<ClosestStepReq>(&req)) {
    return closest_step(*step);
  }
  if (std::get_if<GetPredReq>(&req)) {
    GetPredRep rep;
    rep.has = pred_.has_value();
    rep.pred = pred_.value_or(0);
    return rep;
  }
  if (std::get_if<GetSuccListReq>(&req)) {
    GetSuccListRep rep;
    rep.succs.assign(succ_list_.begin(), succ_list_.end());
    return rep;
  }
  if (auto* dup = std::get_if<DupCheckReq>(&req)) {
    return DupCheckRep{seen_stream(dup->stream_id)};
  }
  if (auto* data = std::get_if<MulticastDataReq>(&req)) {
    // Reliable path: deliver + forward, then the reply acknowledges the
    // link transfer. Duplicate retransmissions are absorbed by the
    // stream dedupe in on_multicast.
    on_multicast(from, MulticastData{data->stream_id, data->bound,
                                     data->depth, data->payload_bytes});
    return MulticastAckRep{};
  }
  if (auto* dig = std::get_if<RepairDigestReq>(&req)) {
    // Bidirectional anti-entropy: pull what the offerer has that we
    // miss, and hand back our own digest so it can do the same.
    handle_repair_digest(
        from, std::span<const std::uint64_t>(dig->streams.data(),
                                             dig->streams.size()));
    return RepairDigestRep{repair_digest()};
  }
  if (auto* pull = std::get_if<StreamPullReq>(&req)) {
    auto it = seen_streams_.find(pull->stream_id);
    if (it == seen_streams_.end()) return StreamPullRep{};
    // Serving a pull refreshes the entry: a stream actively spreading
    // through repair stays advertisable until the chain completes.
    it->second.last_seen = net_.sim().now();
    return StreamPullRep{true, it->second.depth, it->second.payload_bytes};
  }
  return PingRep{};
}

void AsyncNodeBase::send_multicast(Id to, const MulticastData& data) {
  tel().trace(EventType::kMulticastSend, net_.sim().now(), self_, to,
              data.stream_id, static_cast<std::uint64_t>(data.depth));
  tel().count_node("mc.sent", self_);
  const int retries = net_.config().multicast_retries;
  if (retries <= 0) {
    net_.bus().post(self_, to, data, data.payload_bytes, MsgClass::kData);
    return;
  }
  // Acknowledged transfer with bounded retransmission: a plain member-
  // method chain (each timeout reschedules multicast_attempt with one
  // fewer try), so the whole retry state is the closure's 48 inline
  // bytes — no shared_ptr keep-alive, no allocation per attempt.
  multicast_attempt(to,
                    MulticastDataReq{data.stream_id, data.bound, data.depth,
                                     data.payload_bytes},
                    retries);
}

void AsyncNodeBase::multicast_attempt(Id to, const MulticastDataReq& req,
                                      int left) {
  const int retries = net_.config().multicast_retries;
  call(
      to, req, [](const ReplyPayload&) {},
      [this, to, req, left, retries] {
        if (!alive_) return;
        if (left <= 0) {
          // All retransmissions exhausted: the link is down or the
          // child is dead — hand the orphaned region to the repair
          // layer instead of dropping it on the floor.
          give_up_multicast(to, MulticastData{req.stream_id, req.bound,
                                              req.depth, req.payload_bytes});
          return;
        }
        tel().trace(EventType::kRetransmit, net_.sim().now(), self_, to,
                    req.stream_id, static_cast<std::uint64_t>(left));
        tel().count_node("mc.retransmits", self_);
        // Jittered exponential backoff between attempts (attempt index
        // counts completed tries) so post-heal retries desynchronize.
        net_.sim().after(
            retry_backoff_ms(net_.config(), self_, req.stream_id + to,
                             retries - left),
            [this, to, req, left] { multicast_attempt(to, req, left - 1); });
      },
      req.payload_bytes, MsgClass::kData);
}

void AsyncNodeBase::give_up_multicast(Id to, const MulticastData& msg) {
  tel().trace(EventType::kRepairGiveUp, net_.sim().now(), self_, to,
              msg.stream_id, static_cast<std::uint64_t>(msg.depth));
  tel().count_node("repair.give_ups", self_);
  if (!net_.config().repair) return;
  repair_orphan(to, msg);
}

bool AsyncNodeBase::redelegate_budget(std::uint64_t stream_id) {
  auto it = seen_streams_.find(stream_id);
  if (it == seen_streams_.end()) return false;  // evicted: window closed
  if (it->second.repairs >= kRepairRedelegateBudget) return false;
  ++it->second.repairs;
  return true;
}

void AsyncNodeBase::redelegate_region(Id dead, const MulticastData& msg,
                                      bool bounded) {
  if (!alive_) return;
  // The orphan region is (dead, msg.bound]; when the dead child IS the
  // bound, the region beyond it is empty — nothing to recover.
  if (bounded && msg.bound == dead) return;
  if (!redelegate_budget(msg.stream_id)) return;
  // The region's first live member owns dead + 1; route to it with our
  // own lookup machinery (which excludes dead hops as it goes).
  start_lookup(
      self_, net_.ring().add(dead, 1),
      [this, dead, msg, bounded](LookupResult& r) {
        if (!alive_) return;
        const bool usable =
            r.ok && r.owner != self_ && r.owner != dead &&
            !suspected(r.owner) &&
            (!bounded || net_.ring().in_oc(r.owner, dead, msg.bound));
        if (!usable) {
          // Routing hasn't absorbed the crash yet: retry once the fix /
          // stabilize machinery has had a backoff's worth of rounds.
          auto it = seen_streams_.find(msg.stream_id);
          if (it == seen_streams_.end()) return;
          net_.sim().after(
              retry_backoff_ms(net_.config(), self_, msg.stream_id + dead,
                               it->second.repairs),
              [this, dead, msg, bounded] {
                redelegate_region(dead, msg, bounded);
              });
          return;
        }
        tel().trace(EventType::kRepairRedelegate, net_.sim().now(), self_,
                    r.owner, msg.stream_id, dead);
        tel().count_node("repair.redelegations", self_);
        // Same bound and depth as the original transfer: the new
        // delegate inherits the dead child's responsibility wholesale.
        send_multicast(r.owner, msg);
      });
}

SmallVec<std::uint64_t, 8> AsyncNodeBase::repair_digest() const {
  const AsyncConfig& cfg = net_.config();
  const SimTime horizon =
      std::max(cfg.stream_seen_ttl_ms, retransmit_tail_ms(cfg));
  // Advertise at most half the eviction horizon: a stream evicted here
  // must already be gone from every neighbor's digest, or eviction and
  // re-pull would chase each other forever.
  const SimTime window = std::min(kRepairDigestWindowMs, horizon / 2);
  const SimTime now = net_.sim().now();
  auto& recent = scratch_recent_;
  recent.clear();
  for (const auto& [id, meta] : seen_streams_) {
    if (now - meta.last_seen <= window) recent.emplace_back(meta.last_seen, id);
  }
  if (recent.size() > kRepairDigestMax) {
    // Newest first, id as the deterministic tiebreak; then truncate.
    std::sort(recent.begin(), recent.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    recent.resize(kRepairDigestMax);
  }
  SmallVec<std::uint64_t, 8> out;
  out.reserve(recent.size());
  for (const auto& [t, id] : recent) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

void AsyncNodeBase::repair_exchange_tick() {
  // Exchange with the ring neighbors: a digest spreads one hop per tick
  // in both directions, so any hole in the membership eventually meets
  // a holder — the epidemic argument behind eventual delivery. An empty
  // digest is still worth sending: the *reply* carries the peer's
  // digest, which is how a restarted or partitioned node learns what it
  // missed.
  std::vector<Id> peers;
  if (auto s = successor(); s && *s != self_ && !suspected(*s)) {
    peers.push_back(*s);
  }
  if (pred_ && *pred_ != self_ && !suspected(*pred_) &&
      (peers.empty() || peers.front() != *pred_)) {
    peers.push_back(*pred_);
  }
  if (peers.empty()) return;
  SmallVec<std::uint64_t, 8> digest = repair_digest();
  for (Id p : peers) {
    tel().trace(EventType::kRepairDigest, net_.sim().now(), self_, p,
                digest.size());
    tel().count_node("repair.digests", self_);
    call(
        p, RepairDigestReq{digest},
        [this, p](const ReplyPayload& pl) {
          if (!alive_) return;
          handle_repair_digest(p, std::get<RepairDigestRep>(pl).streams);
        },
        [] {}, kRpcBytes, MsgClass::kRepair);
  }
}

void AsyncNodeBase::handle_repair_digest(
    Id peer, std::span<const std::uint64_t> ids) {
  for (std::uint64_t id : ids) {
    if (!seen_stream(id)) pull_stream(peer, id);
  }
}

void AsyncNodeBase::pull_stream(Id peer, std::uint64_t stream_id) {
  // One pull in flight per stream: both neighbors usually advertise the
  // same hole, and duplicate pulls would double-count repair traffic.
  if (!pulls_in_flight_.insert(stream_id).second) return;
  call(
      peer, StreamPullReq{stream_id},
      [this, peer, stream_id](const ReplyPayload& pl) {
        pulls_in_flight_.erase(stream_id);
        if (!alive_) return;
        const auto& rep = std::get<StreamPullRep>(pl);
        if (!rep.found || seen_stream(stream_id)) return;
        tel().trace(EventType::kRepairPull, net_.sim().now(), self_, peer,
                    stream_id, static_cast<std::uint64_t>(rep.depth + 1));
        tel().count_node("repair.pulls", self_);
        // Deliver as a regular copy one level below the provider. The
        // bound is the puller itself, so a region-split forward is a
        // no-op (the pull repairs this node, not a region); CAM-Koorde
        // refloods and its dup checks absorb the copies.
        on_multicast(peer, MulticastData{stream_id, self_, rep.depth + 1,
                                         rep.payload_bytes});
      },
      [this, stream_id] { pulls_in_flight_.erase(stream_id); },
      kRpcBytes, MsgClass::kRepair);
}

void AsyncNodeBase::adopt_successor(Id candidate) {
  if (candidate == self_) return;
  if (!succ_list_.empty() && succ_list_.front() == candidate) return;
  std::erase(succ_list_, candidate);
  succ_list_.insert(succ_list_.begin(), candidate);
  if (succ_list_.size() > kSuccessorListLen) {
    succ_list_.resize(kSuccessorListLen);
  }
}

void AsyncNodeBase::drop_successor(Id dead) {
  // Demote, don't destroy. Erasing struck-out entries loses the node's
  // only recovery contacts: a solo-partitioned node strikes out its
  // whole list one head at a time, and once the list is empty (or holds
  // only a node that really did crash) it is orphaned forever — nobody
  // to probe, notify, or be noticed by after the partition heals. So a
  // suspected head is rotated to the back instead: the other candidates
  // get their turn, every former neighbor stays reachable as a
  // last-resort contact, and the first successful stabilize round
  // rebuilds the list wholesale from the live successor's view, which
  // flushes the genuinely dead entries.
  if (succ_list_.empty()) return;
  if (succ_list_.front() == dead) {
    if (succ_list_.size() > 1) {
      std::rotate(succ_list_.begin(), succ_list_.begin() + 1,
                  succ_list_.end());
    }
    return;
  }
  std::erase(succ_list_, dead);
}

void AsyncNodeBase::stabilize_tick() {
  evict_seen_streams();
  if (!joined_) return;
  tel().trace(EventType::kStabilize, net_.sim().now(), self_);
  tel().count_node("maint.stabilize_ticks", self_);
  if (net_.config().repair) repair_exchange_tick();
  const RingSpace& ring = net_.ring();
  // Suspicion post-mortem: an expired suspicion marks a link this node
  // severed under faults and then forgot — succ-list rebuilds and entry
  // refreshes flush every reference, which is exactly how two
  // partition-era rings end up interleaved with no cross-links left to
  // merge through. Re-probe an expired suspect that would sit between
  // us and our current successor; if it answers, adopting it splices
  // the rings back together.
  {
    const SimTime now = net_.sim().now();
    std::vector<Id> expired;
    for (const auto& [p, until] : suspects_) {
      if (now >= until) expired.push_back(p);
    }
    std::sort(expired.begin(), expired.end());
    for (Id p : expired) {
      absolve(p);
      auto succ = successor();
      if (!succ || *succ == self_ || p == *succ || p == self_) continue;
      if (!ring.in_oo(p, self_, *succ)) continue;
      call(
          p, PingReq{},
          [this, p](const ReplyPayload&) {
            if (!alive_) return;
            auto s = successor();
            if (s && *s != p &&
                (*s == self_ || net_.ring().in_oo(p, self_, *s))) {
              adopt_successor(p);
            }
          },
          [] {}, kRpcBytes, MsgClass::kMaintenance);
    }
  }
  // Ring-merge repair: an entry strictly inside (self, succ) is a closer
  // successor candidate; adopt it provisionally — if it is dead, the
  // GetPred timeouts below prune it again.
  std::optional<Id> succ = successor();
  for (Id e : entries_) {
    if (e == self_ || suspected(e)) continue;
    if (!succ ||
        (*succ != e && (*succ == self_ || ring.in_oo(e, self_, *succ)))) {
      adopt_successor(e);
      succ = e;
    }
  }
  if (!succ || *succ == self_) {
    if (pred_ && *pred_ != self_) adopt_successor(*pred_);
    succ = successor();
    if (!succ || *succ == self_) return;  // genuinely alone
  }
  // Probe the first non-suspected list entry, not blindly the head: a
  // suspected head eats the whole round timing out while a live
  // alternate sits right behind it, and a list that is temporarily all
  // dead (a partition cut every listed successor — possible when the
  // list is shorter than the cut) would stall stabilization forever.
  // On success the wholesale rebuild below flushes the dead prefix.
  Id s = *succ;
  bool have_live = false;
  for (Id e : succ_list_) {
    if (e != self_ && !suspected(e)) {
      s = e;
      have_live = true;
      break;
    }
  }
  if (!have_live && pred_ && *pred_ != self_ && !suspected(*pred_)) {
    // Every listed successor is suspected but the predecessor still
    // answers pings: rejoin the ring through it. GetPred then walks
    // backwards to the true wrap-around successor.
    adopt_successor(*pred_);
    s = *pred_;
  }
  // If nothing is live, keep knocking on the retained contacts anyway —
  // after a partition heals, one of them answers and repair resumes.
  call(
      s, GetPredReq{},
      [this, s](const ReplyPayload& payload) {
        if (!alive_) return;
        const auto& rep = std::get<GetPredRep>(payload);
        Id next = s;
        if (rep.has && rep.pred != self_ && rep.pred != s &&
            net_.ring().in_oo(rep.pred, self_, s)) {
          adopt_successor(rep.pred);
          next = rep.pred;
        }
        net_.bus().post(self_, next, NotifyMsg{}, kRpcBytes,
                        MsgClass::kMaintenance);
        call(
            next, GetSuccListReq{},
            [this, next](const ReplyPayload& pl) {
              if (!alive_) return;
              const auto& lst = std::get<GetSuccListRep>(pl);
              auto& fresh = scratch_succs_;
              fresh.clear();
              fresh.push_back(next);
              for (Id e : lst.succs) {
                if (fresh.size() >= kSuccessorListLen) break;
                if (e == self_) break;  // lapped the ring
                if (std::find(fresh.begin(), fresh.end(), e) == fresh.end()) {
                  fresh.push_back(e);
                }
              }
              succ_list_.assign(fresh.begin(), fresh.end());
            },
            [this, next] {
              if (suspected(next)) drop_successor(next);
            });
      },
      [this, s] {
        // Drop only once the strike threshold confirms the suspicion —
        // a single lost datagram must not evict a live successor.
        if (suspected(s)) drop_successor(s);
      },
      kRpcBytes, MsgClass::kMaintenance);
}

void AsyncNodeBase::fix_tick() {
  if (!joined_ || idents_.empty()) return;
  tel().trace(EventType::kFix, net_.sim().now(), self_);
  tel().count_node("maint.fix_ticks", self_);
  fix_idx_ = (fix_idx_ + 1) % idents_.size();
  const std::size_t idx = fix_idx_;
  start_lookup(self_, idents_[idx], [this, idx](LookupResult& r) {
    if (!alive_ || !r.ok) return;
    entries_[idx] = r.owner;
  });
}

void AsyncNodeBase::ping_tick() {
  if (!pred_ || *pred_ == self_) return;
  tel().trace(EventType::kPing, net_.sim().now(), self_);
  tel().count_node("maint.ping_ticks", self_);
  Id p = *pred_;
  call(
      p, PingReq{}, [](const ReplyPayload&) {},
      [this, p] {
        if (suspected(p) && pred_ && *pred_ == p) pred_.reset();
      },
      kRpcBytes, MsgClass::kMaintenance);
}

void AsyncNodeBase::on_notify(Id candidate) {
  if (candidate == self_) return;
  if (!pred_ || *pred_ == self_ ||
      net_.ring().in_oo(candidate, *pred_, self_)) {
    pred_ = candidate;
  }
  // Otherwise the current predecessor may be dead; the ping timer clears
  // it and the next notify lands.
}

AsyncNodeBase::LookupOp* AsyncNodeBase::acquire_lookup() {
  if (lookup_free_.empty()) {
    lookup_ops_.push_back(std::make_unique<LookupOp>());
    return lookup_ops_.back().get();
  }
  LookupOp* op = lookup_free_.back();
  lookup_free_.pop_back();
  return op;
}

void AsyncNodeBase::release_lookup(LookupOp* op) {
  op->excluded.clear();
  op->path.clear();  // keeps capacity: the next lookup reuses the buffer
  op->restarts = 0;
  op->done = {};
  lookup_free_.push_back(op);
}

void AsyncNodeBase::finish_lookup(LookupOp* op, bool ok, Id owner) {
  LookupResult res;
  if (ok) {
    res.ok = true;
    res.owner = owner;
    // Hand the accumulated path over by move; reclaim the buffer after
    // the continuation returns (unless it moved the path out, in which
    // case the pool op simply regrows on some later walk).
    res.path = std::move(op->path);
  }
  LookupDone done = std::move(op->done);
  done(res);
  if (ok) op->path = std::move(res.path);
  release_lookup(op);
}

void AsyncNodeBase::start_lookup(Id first_hop, Id target, LookupDone done) {
  tel().trace(EventType::kLookupStart, net_.sim().now(), self_, first_hop,
              target);
  tel().count_node("lookup.started", self_);
  LookupOp* op = acquire_lookup();
  op->target = target;
  op->cursor = first_hop;
  op->anchor = first_hop;
  op->path.push_back(first_hop);
  // Every completion path funnels through op->done, so the completion
  // trace wraps the user callback instead of repeating at each exit.
  // Only wrap when a sink is attached: the wrapper's capture (this +
  // the wrapped continuation) exceeds the inline capacity, and lookups
  // are frequent enough that the heap fallback is worth skipping when
  // nothing is tracing.
  if (tel().active()) {
    op->done = [this, user = std::move(done)](LookupResult& r) mutable {
      tel().trace(EventType::kLookupDone, net_.sim().now(), self_, r.owner,
                  r.hops(), r.ok ? 1 : 0);
      if (r.ok) {
        tel().count_node("lookup.ok", self_);
        tel().observe("lookup.hops", static_cast<double>(r.hops()));
      } else {
        tel().count_node("lookup.failed", self_);
      }
      user(r);
    };
  } else {
    op->done = std::move(done);
  }
  if (first_hop == self_) {
    // Answer the first step locally — no RPC to ourselves.
    ClosestStepRep rep =
        closest_step(ClosestStepReq{target, op->cursor, {}});
    if (rep.final) {
      finish_lookup(op, true, rep.node);
      return;
    }
    op->cursor = rep.next_cursor;
    op->path.push_back(rep.node);
    lookup_step(op, rep.node);
    return;
  }
  lookup_step(op, first_hop);
}

void AsyncNodeBase::lookup_step(LookupOp* op, Id hop) {
  if (op->path.size() > kMaxLookupHops) {
    finish_lookup(op, false, 0);
    return;
  }
  tel().trace(EventType::kLookupHop, net_.sim().now(), self_, hop,
              op->target, op->path.size());
  // Exactly one of the two continuations below fires (the pending-RPC
  // table guarantees it), so the raw op pointer has a single owner at
  // every point of the walk. A crash mid-walk abandons the op to the
  // node's op arena — reclaimed at teardown, never leaked.
  call(
      hop, ClosestStepReq{op->target, op->cursor, op->excluded},
      [this, op, hop](const ReplyPayload& payload) {
        if (!alive_) return;
        const auto& rep = std::get<ClosestStepRep>(payload);
        if (rep.final) {
          finish_lookup(op, true, rep.node);
          return;
        }
        op->anchor = hop;
        op->cursor = rep.next_cursor;
        op->path.push_back(rep.node);
        lookup_step(op, rep.node);
      },
      [this, op, hop] {
        if (!alive_) return;
        op->excluded.push_back(hop);
        if (++op->restarts > kLookupRestarts) {
          finish_lookup(op, false, 0);
          return;
        }
        tel().trace(EventType::kLookupRestart, net_.sim().now(), self_, hop,
                    op->target, static_cast<std::uint64_t>(op->restarts));
        tel().count_node("lookup.restarts", self_);
        // Fall back to the last responsive hop (or ourselves).
        Id retry = op->anchor == hop ? self_ : op->anchor;
        if (retry == self_) {
          op->cursor = self_;  // restart the identifier transform at home
          ClosestStepRep rep =
              closest_step(ClosestStepReq{op->target, op->cursor,
                                          op->excluded});
          if (rep.final) {
            finish_lookup(op, true, rep.node);
            return;
          }
          op->cursor = rep.next_cursor;
          op->path.push_back(rep.node);
          lookup_step(op, rep.node);
          return;
        }
        lookup_step(op, retry);
      });
}

void AsyncNodeBase::on_multicast(Id from, const MulticastData& msg) {
  net_.deliver_record(from, self_, msg.depth, msg.stream_id);
  // Exactly-once forwarding: only the first copy is propagated.
  if (!note_stream(msg.stream_id, msg.depth, msg.payload_bytes)) {
    tel().trace(EventType::kDupSuppress, net_.sim().now(), self_, from,
                msg.stream_id);
    tel().count_node("mc.dup_suppressed", self_);
    return;
  }
  tel().trace(EventType::kMulticastDeliver, net_.sim().now(), self_, from,
              msg.stream_id, static_cast<std::uint64_t>(msg.depth));
  tel().count_node("mc.delivered", self_);
  forward_multicast(msg);
}

// ---------------------------------------------------------------------
// AsyncOverlayNet
// ---------------------------------------------------------------------

AsyncOverlayNet::AsyncOverlayNet(RingSpace ring, HostBus& bus,
                                 NodeFactory factory, AsyncConfig cfg)
    : ring_(ring), bus_(bus), factory_(std::move(factory)), cfg_(cfg) {}

AsyncOverlayNet::~AsyncOverlayNet() {
  set_telemetry({});  // release Registry/Tracer ownership (they outlive us)
  for (auto& [id, node] : nodes_) {
    node->crash();
    bus_.detach(id);
  }
}

void AsyncOverlayNet::set_telemetry(telemetry::Sink sink) {
  if (tel_.metrics != nullptr && tel_.metrics != sink.metrics) {
    tel_.metrics->detach_host(this);
  }
  if (tel_.tracer != nullptr && tel_.tracer != sink.tracer) {
    tel_.tracer->detach_host(this);
  }
  if (sink.metrics != nullptr) sink.metrics->attach_host(this);
  if (sink.tracer != nullptr) sink.tracer->attach_host(this);
  tel_ = sink;
  bus_.set_telemetry(sink);
  bus_.network().set_telemetry(sink);
}

void AsyncOverlayNet::bootstrap(Id id, NodeInfo info) {
  if (known(id)) throw std::invalid_argument("bootstrap: id already known");
  auto node = factory_(*this, id, info);
  AsyncNodeBase* raw = node.get();
  nodes_.emplace(id, std::move(node));
  ++live_count_;
  tel_.trace(telemetry::EventType::kMemberJoin, sim().now(), id);
  tel_.count("member.joins");
  bus_.attach(
      id, [raw](Id from, Message msg) { raw->handle(from, std::move(msg)); });
  raw->boot_as_first();
}

void AsyncOverlayNet::spawn(Id id, NodeInfo info, Id via) {
  if (known(id)) throw std::invalid_argument("spawn: id already known");
  auto node = factory_(*this, id, info);
  AsyncNodeBase* raw = node.get();
  nodes_.emplace(id, std::move(node));
  ++live_count_;
  tel_.trace(telemetry::EventType::kMemberJoin, sim().now(), id, via);
  tel_.count("member.joins");
  bus_.attach(
      id, [raw](Id from, Message msg) { raw->handle(from, std::move(msg)); });
  raw->boot_via(via);
}

void AsyncOverlayNet::crash(Id id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second->alive()) return;
  it->second->crash();
  bus_.detach(id);
  --live_count_;
  tel_.trace(telemetry::EventType::kCrash, sim().now(), id);
  tel_.count("member.crashes");
}

bool AsyncOverlayNet::running(Id id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second->alive();
}

std::vector<Id> AsyncOverlayNet::members_sorted() const {
  std::vector<Id> ids;
  ids.reserve(live_count_);
  for (const auto& [id, n] : nodes_) {
    if (n->alive()) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

const AsyncNodeBase& AsyncOverlayNet::node(Id id) const {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  return *it->second;
}

void AsyncOverlayNet::run_for(SimTime ms) {
  bus_.sim().run_until(bus_.sim().now() + ms);
}

void AsyncOverlayNet::lookup(Id from, Id target,
                             std::function<void(LookupResult)> done) {
  auto it = nodes_.find(from);
  if (it == nodes_.end() || !it->second->alive()) {
    done(LookupResult{});
    return;
  }
  it->second->start_lookup(
      from, target,
      [user = std::move(done)](LookupResult& r) { user(std::move(r)); });
}

LookupResult AsyncOverlayNet::lookup_blocking(Id from, Id target) {
  LookupResult out;
  bool finished = false;
  lookup(from, target, [&](LookupResult r) {
    out = std::move(r);
    finished = true;
  });
  while (!finished) {
    std::uint64_t ran = bus_.sim().run(10'000);
    if (ran == 0) break;  // queue drained without completion
  }
  return out;
}

bool AsyncOverlayNet::start_multicast(Id source, std::uint64_t stream) {
  auto it = nodes_.find(source);
  if (it == nodes_.end() || !it->second->alive()) return false;
  tel_.count("mc.multicasts");
  it->second->on_multicast(
      source, MulticastData{stream, ring_.sub(source, 1), 0,
                            kMulticastPayloadBytes});
  return true;
}

SimTime AsyncOverlayNet::quiesce_slice_ms() const {
  // Poll slices sized above one hop + dup-check round trip.
  return kRpcTimeoutMs * 2;
}

int AsyncOverlayNet::quiesce_rounds() const {
  // With repair on, "quiet" must outlast the slowest silent path — a
  // full retransmission tail (give-up + re-delegation) or one stabilize
  // round of anti-entropy — or the tree would be snapshotted while a
  // repair is still in flight.
  int quiet_needed = 3;
  if (cfg_.repair) {
    const SimTime slice = quiesce_slice_ms();
    const SimTime tail =
        retransmit_tail_ms(cfg_) + kStabilizePeriodMs + kTimerJitterMs;
    quiet_needed =
        std::max<int>(quiet_needed, static_cast<int>((tail + slice - 1) / slice));
  }
  return quiet_needed;
}

MulticastTree AsyncOverlayNet::multicast(Id source) {
  MulticastTree tree(source);
  if (!running(source)) return tree;  // no stream id consumed
  begin_capture(&tree, next_stream());
  start_multicast(source, active_stream_);
  const SimTime slice = quiesce_slice_ms();
  const int quiet_needed = quiesce_rounds();
  std::uint64_t last = deliveries_;
  int quiet = 0;
  while (quiet < quiet_needed) {
    run_for(slice);
    if (deliveries_ == last) {
      ++quiet;
    } else {
      quiet = 0;
      last = deliveries_;
    }
  }
  begin_capture(nullptr, 0);
  return tree;
}

void AsyncOverlayNet::deliver_record(Id parent, Id child, int depth,
                                     std::uint64_t stream) {
  if (active_tree_ == nullptr) return;
  // A late repair of an *older* stream landing mid-multicast must not
  // pollute the active tree.
  if (stream != active_stream_) return;
  if (child == active_tree_->source()) return;
  if (active_tree_->record(parent, child, depth, bus_.sim().now())) {
    ++deliveries_;
  }
}

double AsyncOverlayNet::ring_consistency() const {
  if (live_count_ == 0) return 1.0;
  std::vector<Id> ids = members_sorted();
  std::size_t ok = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Id want = ids[(i + 1) % ids.size()];
    auto got = nodes_.at(ids[i])->successor();
    if (ids.size() == 1) {
      ok += !got || *got == ids[i];
    } else {
      ok += got && *got == want;
    }
  }
  const double frac = static_cast<double>(ok) / static_cast<double>(ids.size());
  tel_.set_gauge("ring.consistency", frac);
  tel_.trace(telemetry::EventType::kRingSample, bus_.sim().now(), 0, 0, ok,
             ids.size());
  return frac;
}

}  // namespace cam::proto
