// Wire messages of the asynchronous protocol stack.
//
// Unlike the synchronous protocol mode (overlay/ring_net.h), nodes here
// interact exclusively through these messages: no peer state is ever
// read directly, failures manifest as silence (timeouts), and every
// protocol step pays latency on the simulated network.
#pragma once

#include <cstdint>
#include <variant>

#include "ids/ring.h"
#include "overlay/types.h"
#include "util/small_vec.h"

namespace cam::proto {

/// Correlates a reply with its pending request at the caller.
using RpcId = std::uint64_t;

// --- request payloads ---------------------------------------------------

/// One iterative-lookup step: "which node should I ask next for
/// `target`, or who owns it?" `excluded` carries hops the querier has
/// observed to be dead so the responder can route around them. `cursor`
/// is the imaginary-identifier state of de Bruijn routing (CAM-Koorde,
/// Section 4.2); Chord-style responders ignore it.
struct ClosestStepReq {
  Id target = 0;
  Id cursor = 0;
  /// Inline up to the common case (a handful of dead hops per walk);
  /// SmallVec keeps the request heap-free on the RPC hot path.
  SmallVec<Id, 4> excluded;
};

/// Stabilization: ask a successor for its current predecessor.
struct GetPredReq {};

/// Stabilization: ask a successor for its successor list.
struct GetSuccListReq {};

/// Liveness probe.
struct PingReq {};

/// CAM-Koorde's duplicate check (Section 4.3): before forwarding a large
/// payload, ask the neighbor whether it "has received or is receiving"
/// the stream — "a short control packet".
struct DupCheckReq {
  std::uint64_t stream_id = 0;
};

/// Multicast payload sent as a request so the receiver's reply acts as a
/// link-level acknowledgement — the reliable-delivery path (the paper's
/// Section 1 motivates reliable multicast; throughput there "is decided
/// by the node of the smallest throughput, particularly in the case of
/// reliable delivery").
struct MulticastDataReq {
  std::uint64_t stream_id = 0;
  Id bound = 0;
  int depth = 0;
  std::uint32_t payload_bytes = 0;
};

/// Anti-entropy digest offer: "these are the streams I have seen
/// recently" (sorted ascending, at most 32 newest; see async_node.cpp).
/// The receiver pulls what it misses and replies with its own digest so
/// one exchange repairs both directions.
struct RepairDigestReq {
  SmallVec<std::uint64_t, 8> streams;
};

/// Pull one missed stream's payload from a node that advertised it.
struct StreamPullReq {
  std::uint64_t stream_id = 0;
};

// --- reply payloads ------------------------------------------------------

struct ClosestStepRep {
  bool final = false;  // true: `node` is believed responsible for target
  Id node = 0;         // next hop, or the owner when final
  Id next_cursor = 0;  // advanced imaginary identifier (de Bruijn routing)
};

struct DupCheckRep {
  bool seen = false;
};

/// Link-level acknowledgement of a MulticastDataReq.
struct MulticastAckRep {};

struct GetPredRep {
  bool has = false;
  Id pred = 0;
};

struct GetSuccListRep {
  /// Inline capacity is the successor-list length, so a stabilize round
  /// trip never allocates.
  SmallVec<Id, kSuccessorListLen> succs;
};

struct PingRep {};

/// Responder's half of the digest exchange (same format as the request).
struct RepairDigestRep {
  SmallVec<std::uint64_t, 8> streams;
};

/// Serve (or decline) a StreamPullReq. `found` is false when the
/// provider evicted the stream between the digest and the pull.
struct StreamPullRep {
  bool found = false;
  int depth = 0;
  std::uint32_t payload_bytes = 0;
};

using RequestPayload =
    std::variant<ClosestStepReq, GetPredReq, GetSuccListReq, PingReq,
                 DupCheckReq, MulticastDataReq, RepairDigestReq,
                 StreamPullReq>;
using ReplyPayload = std::variant<ClosestStepRep, GetPredRep, GetSuccListRep,
                                  PingRep, DupCheckRep, MulticastAckRep,
                                  RepairDigestRep, StreamPullRep>;

// Ordering assumption of the RPC layer: a reply is posted only *after*
// its request was delivered, so within one request/response pair the
// order is causal by construction — no schedule of network delays can
// hand the caller a reply before the request reached the callee. The
// bus (and any fault shaper hooked into it, fault/injector.h) may drop,
// duplicate, or stretch datagrams, but extra delays are never negative,
// which is exactly what preserves this. A duplicated request is answered
// twice; the caller's pending-RPC table absorbs the late reply. The
// property is guarded by tests/host_bus_fault_test.cpp under aggressive
// duplicate + reorder injection.
struct RpcRequest {
  RpcId id = 0;
  RequestPayload payload;
};

struct RpcReply {
  RpcId id = 0;
  ReplyPayload payload;
};

// --- one-way messages ----------------------------------------------------

/// Chord's notify: "I believe I am your predecessor" (sender in `from`).
struct NotifyMsg {};

/// Multicast data: the receiver is responsible for region (self, bound].
struct MulticastData {
  std::uint64_t stream_id = 0;
  Id bound = 0;
  int depth = 0;
  std::uint32_t payload_bytes = 0;
};

using Message = std::variant<RpcRequest, RpcReply, NotifyMsg, MulticastData>;

}  // namespace cam::proto
