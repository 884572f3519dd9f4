// Common value types shared by every overlay implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ids/ring.h"

namespace cam {

/// Successor-list length every ring member keeps, in both protocol
/// stacks: enough live fallbacks that stabilization survives a burst of
/// adjacent failures.
inline constexpr std::size_t kSuccessorListLen = 8;

/// Bytes on the wire for one overlay multicast payload, in both
/// protocol stacks.
inline constexpr std::uint32_t kMulticastPayloadBytes = 1200;

/// Static per-node attributes. The paper models capacity c_x as "the
/// maximum number of direct children that a node is willing to forward
/// multicast messages" and derives it from upload bandwidth:
/// c_x = floor(B_x / p) (Section 6).
struct NodeInfo {
  std::uint32_t capacity = 0;      // c_x, max direct multicast children
  double bandwidth_kbps = 0.0;     // B_x, upload bandwidth
};

/// Result of a lookup: the responsible node plus the forwarding path.
struct LookupResult {
  Id owner = 0;                 // node responsible for the queried id
  std::vector<Id> path;         // nodes visited, starting at the querier
  bool ok = false;              // false if routing failed (e.g. partition)

  /// Number of overlay hops (path transitions).
  std::size_t hops() const { return path.empty() ? 0 : path.size() - 1; }
};

}  // namespace cam
