#include "session/multi_forwarder.h"

#include <vector>

namespace cam::session {

namespace {

/// Every session group as a plane group: members ascending by id, and
/// under kLedgerShares each interior member's ledger share (a leaf
/// forwards nothing, and kShared serves at the full uplink).
std::vector<dataplane::GroupShape> group_shapes(const SessionLayer& session,
                                                SchedMode mode) {
  std::vector<dataplane::GroupShape> shapes;
  for (GroupId gid : session.group_ids()) {
    const GroupTree* tree = session.group(gid);
    dataplane::GroupShape s;
    s.id = gid;
    s.source = tree->source();
    const std::vector<Id>& members = tree->sorted_members();
    s.members.reserve(members.size());
    for (Id m : members) {
      const GroupTree::Member& mem = tree->member(m);
      const bool full = mode == SchedMode::kShared || mem.children.empty();
      s.members.push_back(
          {m, mem.parent, full ? 0 : session.ledger().share_kbps(m, gid)});
    }
    shapes.push_back(std::move(s));
  }
  return shapes;
}

dataplane::ForwarderConfig plane_config(const MultiGroupConfig& cfg) {
  dataplane::ForwarderConfig plane;
  plane.backpressure = false;
  plane.admission_high_ms = cfg.admission_high_ms;
  plane.admission_low_ms = cfg.admission_low_ms;
  return plane;
}

}  // namespace

MultiGroupForwarder::MultiGroupForwarder(const SessionLayer& session,
                                         const LatencyModel& latency,
                                         MultiGroupConfig cfg)
    : Forwarder(latency, group_shapes(session, cfg.mode), plane_config(cfg),
                cfg.mode, cfg.repair_deadline_ms, {}) {
  std::vector<double> kbps;
  kbps.reserve(node_ids().size());
  for (Id id : node_ids()) kbps.push_back(session.ledger().uplink_kbps(id));
  set_uplinks(std::move(kbps));
}

}  // namespace cam::session
