#include "session/apply.h"

namespace cam::session {

void apply_event(SessionLayer& layer, const workload::SessionEvent& e,
                 ApplyStats& stats) {
  switch (e.op) {
    case workload::SessionOp::kCreate:
      if (layer.create_group(e.group, e.node)) ++stats.creates;
      break;
    case workload::SessionOp::kJoin: {
      const JoinResult r = layer.join(e.group, e.node);
      if (r.outcome == JoinOutcome::kJoined) {
        ++stats.joins_ok;
      } else if (r.outcome == JoinOutcome::kNoCapacity) {
        ++stats.joins_rejected;
      }
      // kAlreadyMember / kNoSuchGroup cannot happen for generated
      // scripts; kUnknownNode only if the directory changed under us.
      break;
    }
    case workload::SessionOp::kLeave:
      if (layer.leave(e.group, e.node)) {
        ++stats.leaves;
      } else {
        ++stats.noop_leaves;
      }
      break;
    case workload::SessionOp::kFail:
      layer.fail_node(e.node);
      ++stats.fails;
      break;
  }
}

ApplyStats apply_events(
    SessionLayer& layer,
    const std::vector<workload::SessionEvent>& events) {
  ApplyStats stats;
  for (const workload::SessionEvent& e : events) apply_event(layer, e, stats);
  return stats;
}

}  // namespace cam::session
