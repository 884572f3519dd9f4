// HostBus binding for the data plane's depth advertisements.
//
// Depth reports belong to the one-tree plane (a BackpressureForwarder
// with backpressure on; DESIGN.md §11). Their default transport is an
// oracle: the child's backlog value rides inside the forwarder's own
// event. This class replaces it with the asynchronous stack's
// queue-depth piggyback (host_bus.h): at every report tick the child
// publishes its backlog via HostBus::set_local_depth and posts one small
// heartbeat datagram to its parent; the depth snapshot rides the
// datagram, and the parent's view is whatever HostBus::advertised_depth
// has actually *delivered* — subject to the bus's loss, shaping, and
// latency. The forwarder keeps its own event heap, so the hooks'
// advance() runs the bus's Simulator up to the forwarder's clock before
// each sample. Over a lossless bus driven by the same LatencyModel as
// the forwarder, the delivered value and its timing are identical to the
// oracle's, which tests/dataplane_piggyback_test.cpp pins by comparing
// whole ForwardStats.
//
// The feed owns its hosts on the bus: register_edge attaches a marker
// handler at the parent, so don't share those host ids with another
// protocol stack on the same bus.
#pragma once

#include <cstdint>

#include "dataplane/forwarder.h"
#include "proto/host_bus.h"
#include "util/flat_table.h"

namespace cam::proto {

/// Receives every *delivered* heartbeat, stamped with the bus's virtual
/// time — the raw signal a failure detector accrues suspicion from
/// (session/failover.h). The observer sees only what the parent
/// actually heard: a heartbeat the bus dropped or delayed reaches the
/// observer late or never, exactly like the depth snapshot it carries.
class HeartbeatObserver {
 public:
  virtual ~HeartbeatObserver() = default;
  virtual void on_heartbeat(Id parent, Id child, SimTime now) = 0;
};

class DepthFeed {
 public:
  explicit DepthFeed(HostBus& bus) : bus_(&bus) {}

  /// Declares one child -> parent advertisement edge and attaches the
  /// delivery-marker handler at the parent.
  void register_edge(Id child, Id parent);

  /// The forwarder-facing hook bundle. The feed must outlive the
  /// forwarder run that uses it.
  dataplane::DepthFeedHooks hooks();

  /// Mirrors every delivered heartbeat to `obs` (nullptr detaches). The
  /// observer must outlive the feed's bus activity.
  void set_heartbeat_observer(HeartbeatObserver* obs) { observer_ = obs; }

  std::uint64_t heartbeats_sent() const { return heartbeats_; }

 private:
  void publish(Id child, double backlog_ms, SimTime now);
  double sample(Id observer, Id peer);

  HostBus* bus_;
  HeartbeatObserver* observer_ = nullptr;
  FlatMap<Id, Id> parent_of_;
  // (parent, child) pairs with a heartbeat delivered since the parent's
  // last sample. sample() consumes the pair, so a report whose heartbeat
  // was lost reads NaN instead of the last backlog heard again (the bus
  // also cannot distinguish "never heard" from "advertised 0 ms").
  FlatMap<Id, FlatSet<Id>> heard_;
  std::uint64_t heartbeats_ = 0;
};

}  // namespace cam::proto
