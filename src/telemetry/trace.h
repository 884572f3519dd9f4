// Structured protocol tracing: fixed-size events in a bounded ring
// buffer stamped with virtual time. The trace is the flight recorder of
// the async stack — when a lookup takes 40 hops under churn or a
// multicast stalls, the event sequence says where, not just the final
// MulticastTree.
//
// Events carry two generic payload words `a` and `b`; their meaning is
// fixed per EventType (documented below) so export and replay never need
// per-type structures.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ids/ring.h"
#include "sim/simulator.h"

namespace cam::telemetry {

/// Protocol events recorded by the instrumented async stack.
///
/// Payload conventions (node = acting node, peer = counterparty):
///   kJoinStart        peer=contact
///   kJoinDone         a=virtual ms spent joining (truncated)
///   kStabilize/kFix/kPing   maintenance tick fired (no payload)
///   kLookupStart      peer=first hop, a=target id
///   kLookupHop        peer=hop asked, a=target id, b=path length so far
///   kLookupRestart    peer=dead hop excluded, a=target id, b=restart #
///   kLookupDone       peer=owner, a=hops, b=1 ok / 0 failed
///   kRpcIssue         peer=callee, a=rpc id, b=MsgClass
///   kRpcTimeout       peer=callee, a=rpc id, b=strike count after
///   kSuspect          peer=suspect, a=suspicion expiry (ms, truncated)
///   kAbsolve          peer=absolved node
///   kMemberJoin       node spawned into the overlay (harness view)
///   kCrash            node crashed (harness view)
///   kMulticastSend    peer=child, a=stream id, b=depth of the payload
///   kMulticastDeliver peer=parent, a=stream id, b=depth (first copy)
///   kDupSuppress      peer=sender/neighbor, a=stream id (copy or
///                     forwarding suppressed by the dedupe / dup-check)
///   kRetransmit       peer=child, a=stream id, b=attempts left
///   kRingSample       a=consistent successors, b=ring size
///   kFaultDrop        injector ate a datagram: node=sender, peer=dest,
///                     a=bytes, b=MsgClass
///   kFaultDuplicate   injector duplicated one: node=sender, peer=dest,
///                     a=extra copies, b=MsgClass
///   kFaultDelay       injector stretched one (delay/reorder fault):
///                     node=sender, peer=dest, a=extra ms (truncated),
///                     b=MsgClass
///   kFaultPartition   partition installed: a=side-A size, b=side-B size
///   kFaultHeal        partition removed (no payload)
///   kRepairGiveUp     multicast to peer exhausted its retransmissions:
///                     peer=unresponsive child, a=stream id, b=depth
///   kRepairRedelegate orphan region re-delegated: peer=new delegate,
///                     a=stream id, b=the suspected (dead) child
///   kRepairDigest     anti-entropy digest offered: peer=exchange peer,
///                     a=ids advertised (high-rate; milestone-masked)
///   kRepairPull       missed stream pulled: peer=provider, a=stream id,
///                     b=delivery depth after the pull
///   kPacketZombie     data-plane copy expired past its deadline:
///                     node=holder, peer=intended dest, a=stream id,
///                     b=packet seq
///   kAdmissionGate    source emission gated: node=source, a=1 pause /
///                     0 resume, b=next packet seq held back
///   kFailoverDetect   overlay detected a crash: node=first detecting
///                     watcher, peer=dead node, a=detection time (ms,
///                     truncated), b=crash time (ms, truncated)
///   kFailoverReattach orphan re-hung: node=orphan, peer=new parent,
///                     a=group id, b=1 standby / 0 full placement
///   kFailoverPark     orphan subtree parked (degraded): node=subtree
///                     root, a=group id, b=subtree member count
///   kFailoverReadmit  parked subtree re-admitted: node=subtree root,
///                     peer=new parent, a=group id, b=member count
enum class EventType : std::uint8_t {
  kJoinStart = 0,
  kJoinDone,
  kStabilize,
  kFix,
  kPing,
  kLookupStart,
  kLookupHop,
  kLookupRestart,
  kLookupDone,
  kRpcIssue,
  kRpcTimeout,
  kSuspect,
  kAbsolve,
  kMemberJoin,
  kCrash,
  kMulticastSend,
  kMulticastDeliver,
  kDupSuppress,
  kRetransmit,
  kRingSample,
  kFaultDrop,
  kFaultDuplicate,
  kFaultDelay,
  kFaultPartition,
  kFaultHeal,
  kRepairGiveUp,
  kRepairRedelegate,
  kRepairDigest,
  kRepairPull,
  kPacketZombie,
  kAdmissionGate,
  kFailoverDetect,
  kFailoverReattach,
  kFailoverPark,
  kFailoverReadmit,
};
inline constexpr int kNumEventTypes = 35;

const char* event_name(EventType t);
/// Inverse of event_name; returns false if `name` is unknown.
bool event_from_name(const std::string& name, EventType& out);

struct TraceEvent {
  SimTime time = 0;
  EventType type = EventType::kJoinStart;
  Id node = 0;
  Id peer = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  bool operator==(const TraceEvent&) const = default;
};

/// Bitmask over EventType. Maintenance ticks and RPC issues fire orders
/// of magnitude more often than protocol milestones; masking them keeps
/// the milestones in the bounded buffer for long runs. 64-bit since
/// ISSUE 8 pushed the event-type count past 32.
using EventMask = std::uint64_t;
inline constexpr EventMask event_bit(EventType t) {
  return EventMask{1} << static_cast<int>(t);
}
inline constexpr EventMask kAllEvents =
    (EventMask{1} << kNumEventTypes) - 1;
/// Everything except the high-rate periodic noise (ticks, rpc issues,
/// absolves, per-tick repair digests) — the default diagnostic mask.
inline constexpr EventMask kMilestoneEvents =
    kAllEvents & ~(event_bit(EventType::kStabilize) |
                   event_bit(EventType::kFix) |
                   event_bit(EventType::kPing) |
                   event_bit(EventType::kRpcIssue) |
                   event_bit(EventType::kAbsolve) |
                   event_bit(EventType::kRepairDigest));

/// Bounded ring buffer of TraceEvents: O(1) append, oldest-first
/// iteration, overwrite-oldest once full (`dropped()` counts evictions).
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 16,
                  EventMask mask = kAllEvents);

  bool wants(EventType t) const { return (mask_ & event_bit(t)) != 0; }
  EventMask mask() const { return mask_; }

  /// Appends unconditionally (callers gate on wants() so masked types
  /// never pay the copy).
  void record(const TraceEvent& e);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }
  /// Events evicted to make room since the last clear().
  std::uint64_t dropped() const { return dropped_; }

  /// Snapshot in recording order (oldest surviving event first).
  std::vector<TraceEvent> events() const;

  void clear();

  // Single-owner enforcement, mirroring telemetry::Registry (see
  // DESIGN.md §9): the ring buffer is not thread-safe, so exactly one
  // live host may record into a Tracer, and the Tracer must outlive it.
  void attach_host(const void* host) {
    assert((host_ == nullptr || host_ == host) &&
           "telemetry::Tracer shared by two live hosts; "
           "give each sweep cell its own Tracer");
    host_ = host;
  }
  void detach_host(const void* host) {
    if (host_ == host) host_ = nullptr;
  }

 private:
  const void* host_ = nullptr;
  std::vector<TraceEvent> buf_;
  std::size_t head_ = 0;  // next write slot
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  EventMask mask_;
};

/// One node's delivery as reconstructed from a trace.
struct ReplayedDelivery {
  Id parent = 0;
  int depth = 0;

  bool operator==(const ReplayedDelivery&) const = default;
};

/// Rebuilds the delivery set of multicast `stream_id` from the
/// kMulticastDeliver events of a trace. With the stack's exactly-once
/// dedupe there is one such event per reached node (the source delivers
/// to itself with parent == self), so the result matches the recorded
/// MulticastTree entry-for-entry.
std::unordered_map<Id, ReplayedDelivery> replay_multicast(
    const std::vector<TraceEvent>& events, std::uint64_t stream_id);

}  // namespace cam::telemetry
