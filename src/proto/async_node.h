// Shared machinery of the asynchronous protocol stack: RPC with timeouts,
// failure suspicion (strike-based), per-node maintenance timers
// (stabilize / fix-neighbors / ping), iterative lookups with dead-hop
// exclusion, join-with-retry, and multicast plumbing.
//
// Protocol subclasses (async_camchord.h, async_camkoorde.h) provide the
// routing table layout, the per-hop lookup decision, and the multicast
// forwarding rule; everything else — exactly the part the paper inherits
// from Chord — lives here.
//
// The stack is instrumented end to end behind a telemetry::Sink (null by
// default): RPC issues/timeouts/strikes, suspicion changes, lookup
// start/hop/restart/done, maintenance ticks, multicast
// send/deliver/dup-suppress/retransmit, and membership churn. See
// telemetry/trace.h for the event vocabulary.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "multicast/tree.h"
#include "overlay/types.h"
#include "proto/host_bus.h"
#include "telemetry/sink.h"
#include "util/flat_table.h"
#include "util/inline_func.h"
#include "util/small_vec.h"

namespace cam::proto {

/// RPC reply deadline: an unanswered call strikes the peer.
inline constexpr SimTime kRpcTimeoutMs = 250;
/// Consecutive timeouts before a peer is suspected / a successor is
/// dropped — one lost datagram must not evict a live neighbor.
inline constexpr int kSuspectAfterStrikes = 3;
/// Target full-table refresh interval: each fix tick refreshes one
/// entry, so the tick period is kEntryRefreshTargetMs / table size —
/// bigger tables (CAM-Chord's O(c log n / log c) vs CAM-Koorde's c)
/// really do cost proportionally more maintenance traffic.
inline constexpr SimTime kEntryRefreshTargetMs = 8'000;

// --- retry backoff ------------------------------------------------------
/// Multicast retransmissions and join retries back off exponentially
/// instead of firing every kRpcTimeoutMs: attempt k waits
/// min(kBackoffCapMs, kBackoffBaseMs * kBackoffFactor^k) scaled by a
/// seeded jitter in [1 - backoff_jitter, 1 + backoff_jitter), so a
/// partition heal doesn't release a synchronized retry storm onto the
/// bus. All timing flows from splitmix64 of (node, nonce, attempt) —
/// fully deterministic per seed.
inline constexpr SimTime kBackoffBaseMs = 250;
inline constexpr double kBackoffFactor = 2.0;
inline constexpr SimTime kBackoffCapMs = 4'000;

struct AsyncConfig {
  /// Link-level retransmissions for multicast payloads. 0 = fire and
  /// forget (unreliable datagrams); k > 0 = each payload is acknowledged
  /// and retransmitted up to k times on timeout.
  int multicast_retries = 2;
  /// Multicast dedupe horizon: stream ids unseen for this long are
  /// evicted from the per-node dedupe set, so long-running sessions
  /// don't grow it without bound. Must comfortably exceed the duration
  /// of one dissemination (including retransmission tails); the
  /// effective horizon is clamped to at least retransmit_tail_ms() so a
  /// straggling retransmission can never resurrect an evicted stream
  /// (exactly-once would break).
  SimTime stream_seen_ttl_ms = 300'000;
  /// Retry backoff jitter fraction (see kBackoffBaseMs).
  double backoff_jitter = 0.25;
  /// Master switch for the repair layer: orphan-region re-delegation on
  /// retransmission give-up plus anti-entropy digest exchange with ring
  /// neighbors during stabilization.
  bool repair = true;
};

/// Backoff delay before retry number `attempt` (0-based) of the retry
/// chain identified by `nonce` at node `self`. Deterministic: same
/// inputs, same delay.
SimTime retry_backoff_ms(const AsyncConfig& cfg, Id self, std::uint64_t nonce,
                         int attempt);

/// Worst-case duration of one acknowledged multicast transfer: every
/// attempt times out and every backoff lands at its jittered maximum.
/// The dedupe eviction horizon is clamped to this (satellite: a stream
/// id evicted mid-retransmission would be re-delivered by the tail).
SimTime retransmit_tail_ms(const AsyncConfig& cfg);

class AsyncOverlayNet;

/// One asynchronous protocol participant.
class AsyncNodeBase {
 public:
  AsyncNodeBase(AsyncOverlayNet& net, Id self, NodeInfo info);
  virtual ~AsyncNodeBase() = default;

  Id self() const { return self_; }
  const NodeInfo& info() const { return info_; }
  bool alive() const { return alive_; }
  bool joined() const { return joined_; }

  // Local-state introspection (reading *this* node is not a protocol
  // violation; tests use it).
  std::optional<Id> successor() const;
  std::optional<Id> predecessor() const { return pred_; }
  const std::vector<Id>& successor_list() const { return succ_list_; }
  const std::vector<Id>& idents() const { return idents_; }
  const std::vector<Id>& entries() const { return entries_; }
  /// Live size of the multicast dedupe set (tests assert eviction).
  std::size_t seen_stream_count() const { return seen_streams_.size(); }
  bool seen_stream(std::uint64_t stream_id) const {
    return seen_streams_.contains(stream_id);
  }

 protected:
  friend class AsyncOverlayNet;

  // RPC continuations are InlineFunc (util/inline_func.h): every
  // capture the protocol registers fits the inline capacity, so a
  // pending RPC costs zero heap traffic. 56 bytes covers the largest
  // hot closure (the retransmission timeout: this + peer + request +
  // two ints = 48); anything bigger still works via the heap fallback.
  using ReplyFn = InlineFunc<void(const ReplyPayload&), 56>;
  using TimeoutFn = InlineFunc<void(), 56>;
  /// Lookup completion. Takes the result by mutable reference so the
  /// engine can reclaim the path buffer after the continuation returns
  /// (a callee that wants to keep the path moves it out).
  using LookupDone = InlineFunc<void(LookupResult&), 64>;

  struct LookupOp {
    Id target = 0;
    Id cursor = 0;
    SmallVec<Id, 4> excluded;
    std::vector<Id> path;
    int restarts = 0;
    Id anchor = 0;  // last responsive hop to fall back to
    LookupDone done;
  };

  // --- subclass hooks --------------------------------------------------
  /// The node's neighbor identifiers (absolute ring positions); entries_
  /// holds the believed owner per identifier, refreshed by fix ticks.
  virtual std::vector<Id> neighbor_idents() const = 0;
  /// One LOOKUP step answered from local state.
  virtual ClosestStepRep closest_step(const ClosestStepReq& req) const = 0;
  /// Forward a (deduplicated) multicast payload onward.
  virtual void forward_multicast(const MulticastData& msg) = 0;
  /// A child exhausted its retransmissions: recover the region it was
  /// responsible for. Default is no repair (fire-and-forget semantics);
  /// protocol subclasses re-delegate via redelegate_region().
  virtual void repair_orphan(Id dead, const MulticastData& msg) {
    (void)dead;
    (void)msg;
  }

  // --- lifecycle (driven by the harness) -------------------------------
  void boot_as_first();
  void boot_via(Id contact);
  void start_timers();
  void crash() { alive_ = false; }

  // --- message plumbing ------------------------------------------------
  void handle(Id from, Message msg);
  virtual ReplyPayload answer(Id from, const RequestPayload& req);
  void call(Id to, RequestPayload req, ReplyFn on_reply,
            TimeoutFn on_timeout, std::size_t bytes = 64,
            MsgClass cls = MsgClass::kControl);

  // --- shared protocol steps -------------------------------------------
  void stabilize_tick();
  void fix_tick();
  void ping_tick();
  void on_notify(Id candidate);
  void adopt_successor(Id candidate);
  void drop_successor(Id dead);
  void start_lookup(Id first_hop, Id target, LookupDone done);
  void lookup_step(LookupOp* op, Id hop);
  /// Completes a lookup: invokes op->done (moving the accumulated path
  /// into the result on success) and returns the op to the pool.
  void finish_lookup(LookupOp* op, bool ok, Id owner);
  LookupOp* acquire_lookup();
  void release_lookup(LookupOp* op);
  void on_multicast(Id from, const MulticastData& msg);

  /// Ships a multicast payload to `to`: acknowledged + retransmitted
  /// when config().multicast_retries > 0, plain datagram otherwise.
  void send_multicast(Id to, const MulticastData& data);
  /// One attempt of the acknowledged transfer; reschedules itself with
  /// `left - 1` on timeout and hands the region to repair at zero.
  void multicast_attempt(Id to, const MulticastDataReq& req, int left);

  bool suspected(Id peer) const;
  void strike(Id peer);
  void absolve(Id peer);
  /// Marks `stream_id` seen now (recording delivery depth + size for
  /// repair pulls); returns true on first sighting.
  bool note_stream(std::uint64_t stream_id, int depth = 0,
                   std::uint32_t payload_bytes = 0);
  /// Drops dedupe entries unseen for the effective horizon
  /// (max(config().stream_seen_ttl_ms, retransmit_tail_ms(config()))).
  void evict_seen_streams();

  // --- delivery repair -------------------------------------------------
  /// Terminal retransmission failure on the reliable multicast path:
  /// traces kRepairGiveUp and hands the orphaned region to
  /// repair_orphan() when config().repair is on.
  void give_up_multicast(Id to, const MulticastData& msg);
  /// Looks up the live owner of the region just past `dead` and re-ships
  /// the payload to it. `bounded` restricts the repair to the orphan
  /// region (dead, msg.bound] — CAM-Chord's region-split invariant;
  /// CAM-Koorde floods unbounded.
  void redelegate_region(Id dead, const MulticastData& msg, bool bounded);
  /// Anti-entropy: offer a digest of recently seen streams to the
  /// successor and predecessor (stabilize-tick cadence).
  void repair_exchange_tick();
  /// Recently seen stream ids, sorted ascending, newest-first truncation
  /// to the digest cap.
  SmallVec<std::uint64_t, 8> repair_digest() const;
  /// Pulls streams from `peer`'s digest that this node has not seen.
  void handle_repair_digest(Id peer, std::span<const std::uint64_t> ids);
  void pull_stream(Id peer, std::uint64_t stream_id);
  /// Consumes one unit of the per-stream re-delegation budget; false
  /// once it is exhausted.
  bool redelegate_budget(std::uint64_t stream_id);

  /// The harness-wide telemetry sink (null members when unattached).
  const telemetry::Sink& tel() const;

  AsyncOverlayNet& net_;
  Id self_;
  NodeInfo info_;
  bool alive_ = true;
  bool joined_ = false;
  Id join_contact_ = 0;
  SimTime join_started_ = 0;

  std::optional<Id> pred_;
  std::vector<Id> succ_list_;
  std::vector<Id> idents_;   // neighbor identifiers (absolute)
  std::vector<Id> entries_;  // believed owner, parallel to idents_
  std::size_t fix_idx_ = 0;

  RpcId next_rpc_ = 1;
  struct Pending {
    Id to = 0;  // peer, for the absolve-on-reply bookkeeping
    ReplyFn on_reply;
    TimeoutFn on_timeout;
  };
  FlatMap<RpcId, Pending> pending_;
  /// Lookup-op pool: `lookup_ops_` owns every op ever allocated (an op
  /// abandoned by a crash stays owned — no leak, reclaimed at node
  /// teardown); `lookup_free_` is the recycle list. Steady-state lookups
  /// reuse ops and their path buffers without touching the heap.
  std::vector<std::unique_ptr<LookupOp>> lookup_ops_;
  std::vector<LookupOp*> lookup_free_;
  /// Scratch for the stabilize-round successor-list rebuild (reused
  /// across rounds; never live across a scheduling boundary).
  std::vector<Id> scratch_succs_;
  /// Scratch for repair_digest()'s (last_seen, id) sort.
  mutable std::vector<std::pair<SimTime, std::uint64_t>> scratch_recent_;
  /// What a node remembers about a seen stream: the dedupe timestamp
  /// plus enough payload metadata to serve anti-entropy pulls and a
  /// counter bounding re-delegation recursion.
  struct StreamMeta {
    SimTime last_seen = 0;
    int depth = 0;
    std::uint32_t payload_bytes = 0;
    int repairs = 0;  // re-delegations issued by this node
  };
  /// Multicast dedupe + repair memory: stream id -> StreamMeta. Entries
  /// older than the effective horizon are evicted from the stabilize
  /// timer so the set stays bounded across many multicasts.
  FlatMap<std::uint64_t, StreamMeta> seen_streams_;
  /// Streams with an outstanding StreamPullReq — one pull at a time per
  /// stream, cleared on reply and on timeout.
  FlatSet<std::uint64_t> pulls_in_flight_;
  int join_attempts_ = 0;  // backoff index for boot_via retries
  FlatMap<Id, SimTime> suspects_;  // id -> suspected until
  FlatMap<Id, int> strikes_;       // consecutive timeouts
};

/// Harness owning the nodes, the bus wiring, and test conveniences.
class AsyncOverlayNet {
 public:
  using NodeFactory = std::function<std::unique_ptr<AsyncNodeBase>(
      AsyncOverlayNet&, Id, NodeInfo)>;

  AsyncOverlayNet(RingSpace ring, HostBus& bus, NodeFactory factory,
                  AsyncConfig cfg = {});
  virtual ~AsyncOverlayNet();

  AsyncOverlayNet(const AsyncOverlayNet&) = delete;
  AsyncOverlayNet& operator=(const AsyncOverlayNet&) = delete;

  const RingSpace& ring() const { return ring_; }
  const AsyncConfig& config() const { return cfg_; }
  HostBus& bus() { return bus_; }
  Simulator& sim() { return bus_.sim(); }

  /// Attaches telemetry to the whole stack: this harness, its HostBus,
  /// and the underlying Network (the bus is 1:1 with the overlay in
  /// every harness we build). Pass {} to detach.
  ///
  /// Ownership: the overlay claims the Registry/Tracer via attach_host,
  /// so wiring one sink into two live overlays asserts (they are not
  /// thread-safe; parallel sweep cells must not share them). The sink
  /// objects must outlive this overlay — declare them first; the
  /// destructor detaches.
  void set_telemetry(telemetry::Sink sink);
  const telemetry::Sink& telemetry() const { return tel_; }

  /// Creates the first member and starts its timers. Throws
  /// std::invalid_argument if `id` is known(), running or crashed.
  void bootstrap(Id id, NodeInfo info);

  /// Starts a node that joins through `via` (asynchronously). Throws
  /// std::invalid_argument if `id` is known(), running or crashed.
  void spawn(Id id, NodeInfo info, Id via);

  /// Crashes a node: it stops answering; peers find out via timeouts.
  /// (The object stays allocated — simulator closures point into it —
  /// but leaves every membership view.)
  void crash(Id id);

  bool running(Id id) const;
  /// True if `id` was ever a member (alive or crashed). Crashed ids stay
  /// known — their objects outlive the crash — so spawners of fresh
  /// nodes (fault/injector.h churn waves) must avoid them.
  bool known(Id id) const { return nodes_.contains(id); }
  std::size_t size() const { return live_count_; }
  std::vector<Id> members_sorted() const;
  const AsyncNodeBase& node(Id id) const;

  /// Advances virtual time by `ms` (maintenance keeps ticking).
  void run_for(SimTime ms);

  /// Asynchronous lookup from a member.
  void lookup(Id from, Id target, std::function<void(LookupResult)> done);

  /// Runs the simulator until the lookup completes (test convenience).
  LookupResult lookup_blocking(Id from, Id target);

  /// Starts a multicast at `source`, runs until deliveries go quiet, and
  /// returns the recorded implicit tree.
  MulticastTree multicast(Id source);

  /// Stream id used by the most recent multicast() — the key to pull its
  /// events out of a trace (telemetry::replay_multicast).
  std::uint64_t last_stream_id() const { return stream_seq_ - 1; }

  // --- sharded-harness hooks (proto/sharded_async.h) -------------------
  // The sharded wrapper owns stream-id allocation (ids must be globally
  // unique across shard-nets) and the quiesce loop (time advances
  // through the shard group, not this net's simulator); each shard-net
  // just records its own nodes' deliveries into a caller-owned tree.

  /// Directs delivery recording into `tree` for `stream` and resets the
  /// delivery counter. Pass nullptr to stop capturing.
  void begin_capture(MulticastTree* tree, std::uint64_t stream) {
    active_tree_ = tree;
    active_stream_ = tree == nullptr ? 0 : stream;
    deliveries_ = 0;
  }
  /// Deliveries recorded since begin_capture().
  std::uint64_t deliveries() const { return deliveries_; }

  /// Injects the initial MULTICAST at `source` (which must be a live
  /// local member; returns false otherwise) under stream id `stream`.
  bool start_multicast(Id source, std::uint64_t stream);

  /// The quiesce-poll geometry multicast() uses: slice length and the
  /// number of consecutive delivery-free slices that count as "done"
  /// (sized to outlast the slowest silent repair path).
  SimTime quiesce_slice_ms() const;
  int quiesce_rounds() const;

  /// Fraction of members whose successor pointer matches ground truth —
  /// the harness's omniscient convergence probe for tests. Recorded as
  /// the "ring.consistency" gauge and a kRingSample trace event when
  /// telemetry is attached.
  double ring_consistency() const;

 private:
  friend class AsyncNodeBase;

  void deliver_record(Id parent, Id child, int depth, std::uint64_t stream);
  std::uint64_t next_stream() { return stream_seq_++; }

  RingSpace ring_;
  HostBus& bus_;
  NodeFactory factory_;
  AsyncConfig cfg_;
  telemetry::Sink tel_;
  FlatMap<Id, std::unique_ptr<AsyncNodeBase>> nodes_;
  std::size_t live_count_ = 0;
  MulticastTree* active_tree_ = nullptr;
  std::uint64_t active_stream_ = 0;  // stream the active tree records
  std::uint64_t deliveries_ = 0;
  std::uint64_t stream_seq_ = 1;
};

inline const telemetry::Sink& AsyncNodeBase::tel() const {
  return net_.telemetry();
}

}  // namespace cam::proto
