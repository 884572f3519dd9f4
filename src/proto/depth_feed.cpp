#include "proto/depth_feed.h"

#include <cmath>
#include <limits>

namespace cam::proto {

namespace {
// "A short control packet" (Section 4.3) — the heartbeat carries no
// payload of its own; the depth snapshot piggybacks on the datagram.
constexpr std::size_t kHeartbeatBytes = 16;
}  // namespace

void DepthFeed::register_edge(Id child, Id parent) {
  parent_of_[child] = parent;
  heard_.try_emplace(parent);
  bus_->attach(parent, [this, parent](Id from, Message) {
    heard_.at(parent).insert(from);
    if (observer_ != nullptr) {
      observer_->on_heartbeat(parent, from, bus_->sim().now());
    }
  });
}

void DepthFeed::publish(Id child, double backlog_ms, SimTime now) {
  bus_->sim().run_until(now);  // the bus clock follows the forwarder's
  bus_->set_local_depth(child, backlog_ms);
  const Id parent = parent_of_.at(child);
  bus_->post(child, parent, RpcRequest{0, PingReq{}}, kHeartbeatBytes,
             MsgClass::kControl);
  ++heartbeats_;
}

double DepthFeed::sample(Id observer, Id peer) {
  const auto fresh = heard_.find(observer);
  if (fresh == heard_.end() || fresh->second.erase(peer) == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return bus_->advertised_depth(observer, peer);
}

dataplane::DepthFeedHooks DepthFeed::hooks() {
  dataplane::DepthFeedHooks h;
  h.publish = [this](Id child, double backlog_ms, SimTime now) {
    publish(child, backlog_ms, now);
  };
  h.advance = [this](SimTime now) { bus_->sim().run_until(now); };
  h.sample = [this](Id observer, Id peer) { return sample(observer, peer); };
  return h;
}

}  // namespace cam::proto
