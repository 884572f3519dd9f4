// Applies a workload-generated SessionEvent script to a SessionLayer.
//
// The generator tracks *intended* membership; the layer enforces
// capacity admission. The two disagree exactly when a join is rejected
// (kNoCapacity), after which later leaves of that node no-op here —
// ApplyStats separates those so tests can assert the expected shape.
#pragma once

#include <cstdint>
#include <vector>

#include "session/session.h"
#include "workload/session_workload.h"

namespace cam::session {

struct ApplyStats {
  std::uint64_t creates = 0;
  std::uint64_t joins_ok = 0;
  std::uint64_t joins_rejected = 0;  // capacity admission said no
  std::uint64_t leaves = 0;
  std::uint64_t noop_leaves = 0;  // leaver never admitted (or already gone)
  std::uint64_t fails = 0;

  bool operator==(const ApplyStats&) const = default;
};

/// Applies one event to the layer and tallies its outcome into `stats`.
void apply_event(SessionLayer& layer, const workload::SessionEvent& e,
                 ApplyStats& stats);

/// Replays `events` (already time-sorted by the generator) against the
/// layer in order. Deterministic: same layer state + same script, same
/// resulting trees and stats.
ApplyStats apply_events(SessionLayer& layer,
                        const std::vector<workload::SessionEvent>& events);

}  // namespace cam::session
