#include "dataplane/forwarder.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace cam::dataplane {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Forwarder::Forwarder(const LatencyModel& latency,
                     const std::vector<GroupShape>& groups,
                     ForwarderConfig cfg, SchedMode mode,
                     double repair_deadline_ms, telemetry::Sink sink)
    : latency_(latency),
      cfg_(cfg),
      mode_(mode),
      repair_deadline_ms_(repair_deadline_ms),
      sink_(sink) {
  assert(cfg_.admission_low_ms <= cfg_.admission_high_ms &&
         "admission low watermark above high watermark");
  assert((groups.size() == 1 ||
          (!cfg_.backpressure && cfg_.deadline_ms == 0)) &&
         "backpressure and deadlines are one-group features");
  // Dense node table: the ascending-id union of every group's members,
  // deterministic regardless of the order trees store their members.
  for (const GroupShape& s : groups) {
    for (const GroupShape::Member& m : s.members) ids_.push_back(m.id);
  }
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  FlatMap<Id, std::uint32_t> index;
  index.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    index.emplace(ids_[i], static_cast<std::uint32_t>(i));
  }
  nodes_.resize(ids_.size());
  if (cfg_.backpressure) relays_.resize(ids_.size());
  dead_.assign(ids_.size(), 0);

  // One Link per (node, child) pair across ALL groups: two groups that
  // share an edge share its BinQueue, so their copies contend in the
  // same place.
  for (const GroupShape& s : groups) {
    for (const GroupShape::Member& m : s.members) {
      if (m.id == s.source) continue;
      nodes_[index.at(m.parent)].links.push_back(
          Link{index.at(m.id), latency_.latency(m.id, m.parent), {}, 0, 0});
    }
  }
  for (Node& n : nodes_) {
    std::sort(n.links.begin(), n.links.end(),
              [](const Link& a, const Link& b) { return a.child < b.child; });
    n.links.erase(std::unique(n.links.begin(), n.links.end(),
                              [](const Link& a, const Link& b) {
                                return a.child == b.child;
                              }),
                  n.links.end());
  }

  // Per-group views: member slots ascending by id; each member's links
  // in ascending child id (members are visited in ascending order).
  groups_.reserve(groups.size());
  for (const GroupShape& s : groups) {
    Group g;
    g.stats.group = s.id;
    const std::size_t size = s.members.size();
    g.members.resize(size);
    if (size != ids_.size()) {
      g.slot_of.reserve(size);
      for (std::size_t k = 0; k < size; ++k) {
        g.slot_of.emplace(index.at(s.members[k].id),
                          static_cast<std::uint32_t>(k));
      }
    }
    for (std::size_t k = 0; k < size; ++k) {
      const GroupShape::Member& sm = s.members[k];
      Member& m = g.members[k];
      m.node = index.at(sm.id);
      m.rate_kbps = sm.share_kbps;
      if (sm.id == s.source) {
        g.source = static_cast<std::uint32_t>(k);
        m.parent = static_cast<std::uint32_t>(k);
        continue;
      }
      const auto pit = std::lower_bound(
          s.members.begin(), s.members.end(), sm.parent,
          [](const GroupShape::Member& a, Id id) { return a.id < id; });
      m.parent = static_cast<std::uint32_t>(pit - s.members.begin());
      m.parent_latency_ms = latency_.latency(sm.parent, sm.id);
      const std::vector<Link>& links = nodes_[index.at(sm.parent)].links;
      const auto lit = std::lower_bound(
          links.begin(), links.end(), m.node,
          [](const Link& l, std::uint32_t child) { return l.child < child; });
      g.members[m.parent].links.push_back(
          MemberLink{static_cast<std::uint32_t>(lit - links.begin()),
                     static_cast<std::uint32_t>(k)});
    }
    group_index_.emplace(s.id, static_cast<std::uint32_t>(groups_.size()));
    groups_.push_back(std::move(g));
  }
}

void Forwarder::set_uplinks(std::vector<double> kbps) {
  assert(kbps.size() == nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    assert(kbps[i] > 0 && "uplink capacity must be positive");
    nodes_[i].kbps = kbps[i];
  }
}

void Forwarder::push_event(Event e) {
  e.seq = next_event_seq_++;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

double Forwarder::node_backlog_ms(std::uint32_t node) const {
  const Node& n = nodes_[node];
  std::uint64_t bytes = relays_.empty() ? 0 : relays_[node].depth_bytes();
  for (const Link& l : n.links) bytes += l.queue.depth_bytes();
  return static_cast<double>(bytes) * 8.0 / n.kbps;
}

double Forwarder::group_backlog_ms(const Group& g, const Member& m) const {
  const Node& n = nodes_[m.node];
  std::uint64_t bytes =
      relays_.empty() ? 0 : relays_[m.node].depth_bytes(g.stats.group);
  for (const MemberLink& ml : m.links) {
    bytes += n.links[ml.link].queue.depth_bytes(g.stats.group);
  }
  return static_cast<double>(bytes) * 8.0 / m.rate_kbps;
}

std::uint32_t Forwarder::group_of(GroupId id) const {
  return groups_.size() == 1 ? 0 : group_index_.at(id);
}

std::uint32_t Forwarder::slot_of(const Group& g, std::uint32_t node) const {
  return g.slot_of.empty() ? node : g.slot_of.at(node);
}

bool Forwarder::holds(const Group& g, std::uint32_t slot,
                      std::uint32_t seq) const {
  return (g.delivered_bits[slot * g.words_per_member + seq / 64] >>
          (seq % 64)) &
         1;
}

std::uint32_t Forwarder::dense_index(Id id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  assert(it != ids_.end() && *it == id && "script id not in any tree");
  return static_cast<std::uint32_t>(it - ids_.begin());
}

std::uint32_t Forwarder::find_link(const Node& n, std::uint32_t child) {
  for (std::uint32_t i = 0; i < n.links.size(); ++i) {
    if (n.links[i].child == child) return i;
  }
  return static_cast<std::uint32_t>(n.links.size());
}

bool Forwarder::active() const {
  if (live_copies_ > 0) return true;
  for (std::uint32_t gidx : active_) {
    const Group& g = groups_[gidx];
    if (g.next_emit < g.traffic.num_packets) return true;
  }
  return false;
}

void Forwarder::relay_to_children(std::uint32_t gidx, std::uint32_t slot,
                                  PacketRef pkt, SimTime now) {
  Group& g = groups_[gidx];
  Member& m = g.members[slot];
  if (m.links.empty()) return;
  Node& n = nodes_[m.node];
  // Round-robin rotation by sequence number over this group's children:
  // no child permanently pays the full serialization delay.
  const std::uint32_t seq = pool_.get(pkt).seq;
  const std::uint32_t bytes = pool_.get(pkt).bytes;
  const std::size_t rot = seq % m.links.size();
  for (std::size_t j = 0; j < m.links.size(); ++j) {
    const MemberLink& ml = m.links[(j + rot) % m.links.size()];
    // Bitmap-aware relay: a reattached child may already hold packets
    // this parent has yet to see (delivered along its pre-failover
    // path). The child's bitmap arrived with the reattach handshake, so
    // the parent suppresses those relays instead of double-delivering.
    // Off the failover path the bit can never be set before the relay —
    // tree delivery is single-path — so this changes nothing there.
    if (holds(g, ml.child, seq)) {
      ++g.stats.suppressed_relays;
      continue;
    }
    Link& l = n.links[ml.link];
    pool_.add_ref(pkt);
    l.queue.push(g.stats.group,
                 QueuedCopy{pkt, l.child, next_order_++, now, false}, bytes);
    ++live_copies_;
  }
  start_tx(gidx, slot, now);
  update_congestion(gidx, slot, now);
}

void Forwarder::start_tx(std::uint32_t gidx, std::uint32_t slot,
                         SimTime now) {
  const Member& m = groups_[gidx].members[slot];
  if (mode_ == SchedMode::kShared) {
    if (!nodes_[m.node].tx_busy) serve_shared(m.node, now);
  } else if (!m.vtx_busy) {
    serve_group(gidx, slot, now);
  }
}

void Forwarder::send(std::uint32_t sender, std::uint32_t gidx,
                     const QueuedCopy& copy, SimTime at) {
  Event arr;
  arr.time = at;
  arr.kind = EventKind::kArrival;
  arr.node = copy.dest;
  arr.gidx = gidx;
  arr.pkt = copy.pkt;  // the queued ref rides the transmission
  arr.aux = sender;    // arrivals from the dead are discarded
  push_event(arr);
}

void Forwarder::serve_shared(std::uint32_t node, SimTime now) {
  if (dead_[node]) return;
  Node& n = nodes_[node];
  BinQueue* relay = relays_.empty() ? nullptr : &relays_[node];
  for (;;) {
    // Global-FIFO head: lowest enqueue stamp across the relay queue and
    // every group's bins on every link — the one place where groups
    // contend for the uplink. -1 marks the relay queue.
    int fifo_q = -2;
    const QueuedCopy* fifo = nullptr;
    if (relay != nullptr && !relay->empty()) {
      fifo = relay->peek_fifo();
      fifo_q = -1;
    }
    for (std::size_t i = 0; i < n.links.size(); ++i) {
      const QueuedCopy* c = n.links[i].queue.peek_fifo();
      if (c != nullptr && (fifo == nullptr || c->order < fifo->order)) {
        fifo = c;
        fifo_q = static_cast<int>(i);
      }
    }
    if (fifo == nullptr) return;  // transmitter idles

    const double my_backlog = node_backlog_ms(node);
    if (my_backlog > max_backlog_ms_) max_backlog_ms_ = my_backlog;
    // Congestion gate: one packet's fan-out burst (one copy per child)
    // is normal operation — a node that has just received a packet holds
    // exactly that much. Upstream queueing can also bunch two packets
    // closer than the pacing interval, transiently stacking a second
    // burst, so only backlog in EXCESS of two full bursts (plus the
    // configured slack) marks the uplink congested; until then the
    // service order is pure FIFO, which is what keeps the uncongested
    // backpressure schedule bit-identical to the FIFO plane. A real
    // hotspot grows without bound and clears the gate regardless.
    bool congested_here = false;
    if (cfg_.backpressure) {
      const double burst_ms = static_cast<double>(n.links.size()) *
                              (groups_[0].packet_kbit / n.kbps * 1000.0);
      congested_here = my_backlog > 2.0 * burst_ms + cfg_.delegation_ms;
    }

    int chosen_q = fifo_q;
    const QueuedCopy* chosen = fifo;
    bool by_pressure = false;
    if (congested_here) {
      // Congestion-gradient selection: local link backlog minus the
      // child's advertised uplink backlog (corrected by what we have
      // delegated to it since its last report). Deviating from FIFO
      // requires a hysteresis-sized advantage; ties keep tree order.
      auto gradient = [&](int q) {
        if (q < 0) return relay->depth_bytes() * 8.0 / n.kbps;
        const Link& l = n.links[static_cast<std::size_t>(q)];
        const double local = l.queue.depth_bytes() * 8.0 / n.kbps;
        const double remote =
            l.adv_backlog_ms +
            l.delegated_since_bytes * 8.0 / nodes_[l.child].kbps;
        return local - remote;
      };
      int best_q = -2;
      double best_grad = -kInf;
      for (std::size_t i = 0; i < n.links.size(); ++i) {
        if (n.links[i].queue.empty()) continue;
        const double g = gradient(static_cast<int>(i));
        if (g > best_grad) {
          best_grad = g;
          best_q = static_cast<int>(i);
        }
      }
      if (best_q >= -1 && best_q != fifo_q &&
          best_grad > gradient(fifo_q) + cfg_.hysteresis_ms) {
        chosen_q = best_q;
        chosen = n.links[static_cast<std::size_t>(best_q)]
                     .queue.peek_pressure();
        by_pressure = true;
      }
    }

    const Packet& pkt = pool_.get(chosen->pkt);
    const std::uint32_t bytes = pkt.bytes;
    const std::uint32_t gidx = group_of(pkt.stream);
    auto pop_chosen = [&]() -> QueuedCopy {
      BinQueue& q = chosen_q < 0
                        ? *relay
                        : n.links[static_cast<std::size_t>(chosen_q)].queue;
      return by_pressure ? q.pop_pressure(bytes) : q.pop_fifo(bytes);
    };

    // Latency-constrained mode: a copy past its deadline at service
    // time becomes a zombie — dropped, counted, never transmitted.
    if (cfg_.deadline_ms > 0 && now - pkt.emitted_ms > cfg_.deadline_ms) {
      QueuedCopy copy = pop_chosen();
      ++zombie_copies_;
      zombie_bytes_ += bytes;
      sink_.count("dataplane.zombie.copies");
      sink_.count("dataplane.zombie.bytes", bytes);
      sink_.trace(telemetry::EventType::kPacketZombie, now, ids_[node],
                  ids_[copy.dest], pkt.stream, pkt.seq);
      pool_.release(copy.pkt);
      --live_copies_;
      update_congestion(gidx, slot_of(groups_[gidx], node), now);
      continue;
    }

    // Duty shedding: a congested node hands the copy to another child
    // that already holds the packet and has the shallower uplink, via a
    // control token — the data bytes route around this uplink entirely.
    // Only a one-group plane gets here, and there slot i is node i.
    if (congested_here && chosen_q >= 0 && !chosen->delegated) {
      int best_l = -1;
      double best_est = kInf;
      for (std::size_t i = 0; i < n.links.size(); ++i) {
        const Link& l = n.links[i];
        if (l.child == chosen->dest) continue;
        if (!holds(groups_[0], l.child, pkt.seq)) continue;
        const double est = l.adv_backlog_ms +
                           l.delegated_since_bytes * 8.0 /
                               nodes_[l.child].kbps;
        if (est < best_est) {
          best_est = est;
          best_l = static_cast<int>(i);
        }
      }
      if (best_l >= 0 && best_est + cfg_.hysteresis_ms < my_backlog) {
        QueuedCopy copy = pop_chosen();
        Link& helper = n.links[static_cast<std::size_t>(best_l)];
        helper.delegated_since_bytes += bytes;
        ++delegated_copies_;
        sink_.count("dataplane.delegated");
        Event e;
        e.time = now + helper.latency_ms;
        e.kind = EventKind::kDelegateArrive;
        e.node = helper.child;
        e.dest = copy.dest;
        e.pkt = copy.pkt;  // the queued ref rides the token
        push_event(e);
        update_congestion(0, node, now);
        continue;
      }
    }

    // Transmit at the full uplink: done = start + tx, arrival = done +
    // link latency.
    QueuedCopy copy = pop_chosen();
    const double tx = groups_[gidx].packet_kbit / n.kbps * 1000.0;
    n.tx_busy = true;
    ++copies_sent_;
    sink_.observe("dataplane.backlog_ms", my_backlog);
    const SimTime done = now + tx;
    Event free;
    free.time = done;
    free.kind = EventKind::kTxFree;
    free.node = node;
    push_event(free);
    const SimTime lat =
        chosen_q >= 0
            ? n.links[static_cast<std::size_t>(chosen_q)].latency_ms
            : latency_.latency(ids_[node], ids_[copy.dest]);
    send(node, gidx, copy, done + lat);
    update_congestion(gidx, slot_of(groups_[gidx], node), now);
    return;
  }
}

void Forwarder::serve_group(std::uint32_t gidx, std::uint32_t slot,
                            SimTime now) {
  Group& g = groups_[gidx];
  Member& m = g.members[slot];
  if (dead_[m.node]) return;
  Node& n = nodes_[m.node];
  // FIFO head among THIS group's bins only: the per-group transmitter
  // never sees other groups' queued bytes.
  std::uint32_t head = 0;
  const QueuedCopy* fifo = nullptr;
  const auto consider = [&](std::uint32_t li) {
    const QueuedCopy* c = n.links[li].queue.peek_stream(g.stats.group);
    if (c != nullptr && (fifo == nullptr || c->order < fifo->order)) {
      fifo = c;
      head = li;
    }
  };
  for (const MemberLink& ml : m.links) consider(ml.link);
  for (const auto& [s, li] : g.draining) {
    if (s == slot) consider(li);
  }
  if (fifo == nullptr) return;

  const double my_backlog = group_backlog_ms(g, m);
  if (my_backlog > max_backlog_ms_) max_backlog_ms_ = my_backlog;

  Link& l = n.links[head];
  const QueuedCopy copy =
      l.queue.pop_stream(g.stats.group, pool_.get(fifo->pkt).bytes);
  const double tx = g.packet_kbit / m.rate_kbps * 1000.0;
  m.vtx_busy = true;
  ++copies_sent_;
  const SimTime done = now + tx;
  Event free;
  free.time = done;
  free.kind = EventKind::kVtxFree;
  free.node = m.node;
  free.dest = slot;
  free.gidx = gidx;
  push_event(free);
  send(m.node, gidx, copy, done + l.latency_ms);
  update_congestion(gidx, slot, now);
}

void Forwarder::handle_arrival(const Event& e) {
  Group& g = groups_[e.gidx];
  // A copy to or from a crashed node evaporates: the dead can't
  // receive, and late frames from a dead sender must not land after the
  // child's reattach bitmap was diffed (that would double-deliver what
  // gap repair already backfilled) — exactly-once leans on this.
  if (dead_[e.node] || dead_[static_cast<std::uint32_t>(e.aux)]) {
    ++g.stats.copies_lost;
    pool_.release(e.pkt);
    --live_copies_;
    return;
  }
  const std::uint32_t slot = slot_of(g, e.node);
  Member& m = g.members[slot];
  const Packet& pkt = pool_.get(e.pkt);
  std::uint64_t& word =
      g.delivered_bits[slot * g.words_per_member + pkt.seq / 64];
  if ((word >> (pkt.seq % 64)) & 1) ++g.stats.duplicate_deliveries;
  word |= std::uint64_t{1} << (pkt.seq % 64);
  ++m.delivered;
  ++g.stats.copies_delivered;
  if (e.time < m.first_arrival_ms) m.first_arrival_ms = e.time;
  if (e.time > m.last_arrival_ms) m.last_arrival_ms = e.time;
  if (keep_latencies_) g.latencies_ms.push_back(e.time - pkt.emitted_ms);
  relay_to_children(e.gidx, slot, e.pkt, e.time);
  pool_.release(e.pkt);
  --live_copies_;
}

void Forwarder::depth_report(const Event& e) {
  if (!active()) return;  // traffic drained; stop the chain
  // Depth reports run on one-group planes only, where slot i is node i.
  const Member& m = groups_[0].members[e.node];
  const double backlog = node_backlog_ms(e.node);
  if (feed_) {
    // Piggyback mode: the value travels through the external
    // transport; the event only marks when the parent looks.
    feed_.publish(ids_[e.node], backlog, e.time);
  }
  Event adv;
  adv.time = e.time + m.parent_latency_ms;
  adv.kind = EventKind::kDepthArrive;
  adv.node = m.parent;
  adv.dest = e.node;
  adv.aux = std::bit_cast<std::uint64_t>(backlog);
  push_event(adv);
  Event next = e;
  next.time = e.time + cfg_.depth_report_interval_ms;
  push_event(next);
}

void Forwarder::depth_arrive(const Event& e) {
  Node& n = nodes_[e.node];
  const std::uint32_t li = find_link(n, e.dest);
  assert(li < n.links.size() && "depth report from a non-child");
  double value = std::bit_cast<double>(e.aux);
  if (feed_) {
    feed_.advance(e.time);
    value = feed_.sample(ids_[e.node], ids_[e.dest]);
    if (std::isnan(value)) return;  // lost in transit: keep old view
  }
  n.links[li].adv_backlog_ms = value;
  n.links[li].delegated_since_bytes = 0;
}

void Forwarder::flag_arrive(const Event& e) {
  Group& g = groups_[e.gidx];
  Member& parent = g.members[e.dest];
  Member& sender = g.members[slot_of(g, e.node)];
  // Stale control traffic around failover: flags from (or to) the dead
  // are void, as is a flag aimed at a parent the sender has since been
  // re-hung away from — reattach already synthesized the sender's
  // standing contribution at the new parent.
  if (dead_[e.node] || dead_[parent.node] || sender.pruned ||
      sender.parent != e.dest) {
    return;
  }
  sender.flag_landed = e.aux != 0;
  if (e.aux != 0) {
    ++parent.congested_children;
  } else {
    assert(parent.congested_children > 0);
    --parent.congested_children;
  }
  update_congestion(e.gidx, e.dest, e.time);
}

void Forwarder::update_congestion(std::uint32_t gidx, std::uint32_t slot,
                                  SimTime now) {
  if (cfg_.admission_high_ms <= 0) return;
  Group& g = groups_[gidx];
  Member& m = g.members[slot];
  if (dead_[m.node]) return;  // the dead raise no flags
  const double b = group_backlog_ms(g, m);
  if (!m.own_congested && b > cfg_.admission_high_ms) {
    m.own_congested = true;
  } else if (m.own_congested && b < cfg_.admission_low_ms) {
    m.own_congested = false;
  }
  const bool subtree = m.own_congested || m.congested_children > 0;
  if (slot == g.source) {
    if (!subtree) maybe_resume(gidx, now);
    return;
  }
  if (subtree != m.flag_sent) {
    m.flag_sent = subtree;
    Event e;
    e.time = now + m.parent_latency_ms;
    e.kind = EventKind::kFlagArrive;
    e.node = m.node;
    e.dest = m.parent;
    e.gidx = gidx;
    e.aux = subtree ? 1 : 0;
    push_event(e);
  }
}

void Forwarder::maybe_resume(std::uint32_t gidx, SimTime now) {
  Group& g = groups_[gidx];
  if (!g.emission_paused) return;
  g.emission_paused = false;
  g.stats.admission_paused_ms += now - g.pause_start_ms;
  const std::uint32_t source = g.members[g.source].node;
  sink_.trace(telemetry::EventType::kAdmissionGate, now, ids_[source], 0, 0,
              g.next_emit);
  // Re-anchor this group's emission clock: its remaining packets pace
  // from now; the other groups are untouched.
  g.emit_offset = now - static_cast<SimTime>(g.next_emit) * g.gen_interval;
  Event e;
  e.time = now;
  e.kind = EventKind::kSourceEmit;
  e.node = source;
  e.dest = gidx;
  e.aux = g.next_emit;
  push_event(e);
}

void Forwarder::emit(std::uint32_t gidx, std::uint32_t seq, SimTime now) {
  Group& g = groups_[gidx];
  const Member& src = g.members[g.source];
  const bool subtree_congested =
      cfg_.admission_high_ms > 0 &&
      (src.own_congested || src.congested_children > 0);
  if (subtree_congested) {
    // Only THIS group's emission gates; other groups keep streaming.
    g.emission_paused = true;
    g.pause_start_ms = now;
    ++g.stats.admission_pauses;
    sink_.count("dataplane.admission.pauses");
    sink_.trace(telemetry::EventType::kAdmissionGate, now, ids_[src.node], 0,
                1, seq);
    return;  // maybe_resume() re-schedules this seq when the flag clears
  }
  PacketRef pkt = pool_.alloc(
      g.stats.group, seq, static_cast<std::uint32_t>(g.traffic.packet_bytes),
      now);
  g.delivered_bits[g.source * g.words_per_member + seq / 64] |=
      std::uint64_t{1} << (seq % 64);
  g.emit_ms[seq] = now;
  ++g.stats.packets_emitted;
  relay_to_children(gidx, g.source, pkt, now);
  pool_.release(pkt);
  g.next_emit = seq + 1;
  if (g.next_emit < g.traffic.num_packets) {
    Event e;
    e.time = g.emit_offset +
             static_cast<SimTime>(g.next_emit) * g.gen_interval;
    e.kind = EventKind::kSourceEmit;
    e.node = src.node;
    e.dest = gidx;
    e.aux = g.next_emit;
    push_event(e);
  }
}

MultiGroupStats Forwarder::run(const std::vector<GroupTraffic>& traffic,
                               const FailoverScript& script) {
  assert(!ran_ && "a Forwarder is single-shot");
  ran_ = true;
  failover_active_ = !script.empty();

  for (const GroupTraffic& t : traffic) {
    auto it = group_index_.find(t.group);
    assert(it != group_index_.end() && "traffic for an unknown group");
    const std::uint32_t gidx = it->second;
    Group& g = groups_[gidx];
    assert(g.words_per_member == 0 && "one traffic entry per group");
    assert(t.throttle > 0 && t.throttle <= 1.0);
    g.traffic = t;
    g.packet_kbit = static_cast<double>(t.packet_bytes) * 8.0 / 1000.0;
    if (t.throttle < 1.0) {
      // Degraded source: pace at throttle * the nominal rate. A
      // back-to-back source throttles against its own uplink B_src —
      // the fastest it could have emitted.
      const double nominal =
          t.source_rate_kbps > 0 ? t.source_rate_kbps
                                 : nodes_[g.members[g.source].node].kbps;
      g.gen_interval = g.packet_kbit / (nominal * t.throttle) * 1000.0;
    } else {
      g.gen_interval = t.source_rate_kbps > 0
                           ? g.packet_kbit / t.source_rate_kbps * 1000.0
                           : 0.0;
    }
    g.words_per_member = (t.num_packets + 63) / 64;
    g.delivered_bits.assign(g.members.size() * g.words_per_member, 0);
    g.emit_ms.assign(t.num_packets, 0);
    g.stats.copies_expected =
        g.members.size() > 1
            ? static_cast<std::uint64_t>(g.members.size() - 1) *
                  t.num_packets
            : 0;
    g.emit_offset = t.start_ms;
    for (Member& m : g.members) {
      m.first_arrival_ms = kInf;
      m.last_arrival_ms = 0;
      if (m.rate_kbps == 0) m.rate_kbps = nodes_[m.node].kbps;
      assert(m.rate_kbps > 0 && "call set_uplinks() before run()");
    }
    active_.push_back(gidx);
  }

  // Pre-size the hot-path storage: the pool covers a few packets' worth
  // of full-tree fan-out before its first mid-run slab growth, each
  // link queue its own small working set.
  pool_.reserve(2 * nodes_.size() + 64);
  heap_.reserve(4 * nodes_.size() + 16);
  for (Node& n : nodes_) {
    for (Link& l : n.links) l.queue.reserve(1, 8);
  }
  for (BinQueue& r : relays_) r.reserve(1, 8);

  for (std::uint32_t gidx : active_) {
    const Group& g = groups_[gidx];
    if (g.members.size() <= 1 || g.traffic.num_packets == 0) continue;
    Event first;
    first.time = g.traffic.start_ms;
    first.kind = EventKind::kSourceEmit;
    first.node = g.members[g.source].node;
    first.dest = gidx;
    first.aux = 0;
    push_event(first);
  }
  if (cfg_.backpressure) {
    for (std::uint32_t v = 0; v < nodes_.size(); ++v) {
      if (v == groups_[0].source) continue;
      Event e;
      e.time = cfg_.depth_report_interval_ms;
      e.kind = EventKind::kDepthReport;
      e.node = v;
      push_event(e);
    }
  }

  // Failover surgery rides the same heap. Crashes are pushed first so a
  // same-instant tie resolves crash-before-consequence; prunes before
  // reattaches for the same reason.
  for (const FailoverScript::Crash& c : script.crashes) {
    Event e;
    e.time = c.at_ms;
    e.kind = EventKind::kCrash;
    e.node = dense_index(c.node);
    push_event(e);
  }
  for (const FailoverScript::Prune& p : script.prunes) {
    Event e;
    e.time = p.at_ms;
    e.kind = EventKind::kPrune;
    e.node = dense_index(p.parent);
    e.dest = dense_index(p.child);
    e.gidx = group_index_.at(p.group);
    push_event(e);
  }
  for (const FailoverScript::Reattach& r : script.reattaches) {
    Event e;
    e.time = r.at_ms;
    e.kind = EventKind::kReattach;
    e.node = dense_index(r.child);
    e.dest = dense_index(r.parent);
    e.gidx = group_index_.at(r.group);
    push_event(e);
  }

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    const Event e = heap_.back();
    heap_.pop_back();
    switch (e.kind) {
      case EventKind::kSourceEmit:
        emit(e.dest, static_cast<std::uint32_t>(e.aux), e.time);
        break;
      case EventKind::kArrival:
        handle_arrival(e);
        break;
      case EventKind::kTxFree:
        nodes_[e.node].tx_busy = false;
        serve_shared(e.node, e.time);
        break;
      case EventKind::kVtxFree:
        groups_[e.gidx].members[e.dest].vtx_busy = false;
        serve_group(e.gidx, e.dest, e.time);
        break;
      case EventKind::kDelegateArrive:
        // The helper relays the duty from its own uplink; the token's
        // packet ref becomes the relay queue's.
        relays_[e.node].push(
            groups_[0].stats.group,
            QueuedCopy{e.pkt, e.dest, next_order_++, e.time, true},
            pool_.get(e.pkt).bytes);
        start_tx(0, e.node, e.time);
        update_congestion(0, e.node, e.time);
        break;
      case EventKind::kDepthReport:
        depth_report(e);
        break;
      case EventKind::kDepthArrive:
        depth_arrive(e);
        break;
      case EventKind::kFlagArrive:
        flag_arrive(e);
        break;
      case EventKind::kCrash:
        crash_node(e.node);
        break;
      case EventKind::kPrune:
        prune_link(e.gidx, e.node, e.dest, e.time);
        break;
      case EventKind::kReattach:
        reattach(e.gidx, e.node, e.dest, e.time);
        break;
    }
  }
  assert(pool_.in_use() == 0 && "packet leak: refs left at quiesce");
  assert(live_copies_ == 0);

  MultiGroupStats out;
  finalize(out);
  if (sink_.metrics != nullptr) {
    std::uint64_t packets = 0;
    for (const GroupRunStats& g : out.groups) packets += g.packets_emitted;
    sink_.count("dataplane.packets", packets);
    sink_.count("dataplane.copies", copies_sent_);
    sink_.set_gauge("dataplane.max_backlog_ms", max_backlog_ms_);
    sink_.set_gauge("dataplane.pool.peak",
                    static_cast<double>(pool_.peak_in_use()));
  }
  return out;
}

void Forwarder::crash_node(std::uint32_t node) {
  assert(!dead_[node] && "node crashed twice");
  dead_[node] = 1;
  // Everything queued at the dead node's uplink evaporates with it.
  for (Link& l : nodes_[node].links) {
    while (const QueuedCopy* c = l.queue.peek_fifo()) {
      const Packet& pkt = pool_.get(c->pkt);
      const std::uint32_t gidx = group_of(pkt.stream);
      const QueuedCopy copy = l.queue.pop_fifo(pkt.bytes);
      ++groups_[gidx].stats.copies_lost;
      pool_.release(copy.pkt);
      --live_copies_;
    }
  }
  // The member can never deliver more than it had: freeze expectation
  // at the crash-time count (finalize swaps it in for dead members).
  for (std::uint32_t gidx : active_) {
    Group& g = groups_[gidx];
    if (!g.slot_of.empty() && !g.slot_of.contains(node)) continue;
    const std::uint32_t slot = slot_of(g, node);
    assert(slot != g.source && "script crashed a streamed group's source");
    g.members[slot].frozen_delivered = g.members[slot].delivered;
  }
}

void Forwarder::mark_detached(Group& g, std::uint32_t slot, bool detached) {
  std::vector<std::uint32_t> stack{slot};
  while (!stack.empty()) {
    const std::uint32_t s = stack.back();
    stack.pop_back();
    Member& m = g.members[s];
    m.detached = detached;
    for (const MemberLink& ml : m.links) stack.push_back(ml.child);
  }
}

void Forwarder::prune_link(std::uint32_t gidx, std::uint32_t parent,
                           std::uint32_t child, SimTime now) {
  Group& g = groups_[gidx];
  const std::uint32_t pslot = slot_of(g, parent);
  const std::uint32_t cslot = slot_of(g, child);
  Member& pn = g.members[pslot];
  Member& cn = g.members[cslot];
  // The whole limb below the dead child is cut off until each orphan's
  // reattach lands (expectation accounting for members still detached
  // at the end of the run).
  mark_detached(g, cslot, true);
  cn.pruned = true;
  // Copies already queued on the pruned link still drain — the parent
  // spent that uplink before detection — and evaporate on arrival at
  // the dead child. Only future relays skip the edge. The shared
  // transmitter serves every link of its node; a per-group one keeps
  // the link on its drain list.
  for (auto it = pn.links.begin(); it != pn.links.end(); ++it) {
    if (it->child == cslot) {
      if (mode_ == SchedMode::kLedgerShares &&
          nodes_[parent].links[it->link].queue.depth_bytes(g.stats.group) > 0) {
        g.draining.emplace_back(pslot, it->link);
      }
      pn.links.erase(it);
      break;
    }
  }
  // Retract the dead child's standing congestion vote so the parent's
  // subtree flag (and ultimately the source pause) can clear.
  if (cn.flag_landed) {
    cn.flag_landed = false;
    assert(pn.congested_children > 0);
    --pn.congested_children;
  }
  update_congestion(gidx, pslot, now);
}

void Forwarder::reattach(std::uint32_t gidx, std::uint32_t child,
                         std::uint32_t parent, SimTime now) {
  Group& g = groups_[gidx];
  // A cascade can kill either end between the announce and this event;
  // the next detection round re-hangs the orphan elsewhere.
  if (dead_[child] || dead_[parent]) return;
  const std::uint32_t cslot = slot_of(g, child);
  const std::uint32_t pslot = slot_of(g, parent);
  Member& cn = g.members[cslot];
  Member& pn = g.members[pslot];
  Node& n = nodes_[parent];

  // Find-or-create the node-level link (two groups sharing the new edge
  // share its BinQueue, same as at construction). Appending keeps every
  // stored link index valid. Latency argument order mirrors the ctor.
  const std::uint32_t li = find_link(n, child);
  if (li == n.links.size()) {
    n.links.push_back(
        Link{child, latency_.latency(ids_[child], ids_[parent]), {}, 0, 0});
    n.links[li].queue.reserve(1, 8);
  }
  pn.links.push_back(MemberLink{li, cslot});
  cn.parent = pslot;
  cn.parent_latency_ms = latency_.latency(ids_[parent], ids_[child]);
  cn.pruned = false;
  mark_detached(g, cslot, false);
  ++g.stats.reattaches;
  // Transfer the child's standing congestion vote to the new parent:
  // flag_sent is what the child believes it has raised; any flag still
  // in flight toward the old (dead) parent is void.
  cn.flag_landed = cn.flag_sent;
  if (cn.flag_sent) ++pn.congested_children;

  // Pull gap repair: the child reports its delivery bitmap; the parent
  // backfills every packet it has that the child lacks, oldest first,
  // unless the packet is past the repair deadline (a repair nobody
  // would play out). Repairs re-enter the ordinary queues, so they
  // contend with live traffic and relay onward through the child's
  // subtree like any other copy.
  std::uint64_t gap = 0;
  Link& l = n.links[li];
  for (std::size_t w = 0; w < g.words_per_member; ++w) {
    std::uint64_t missing =
        g.delivered_bits[pslot * g.words_per_member + w] &
        ~g.delivered_bits[cslot * g.words_per_member + w];
    while (missing != 0) {
      const std::uint32_t bit =
          static_cast<std::uint32_t>(__builtin_ctzll(missing));
      missing &= missing - 1;
      const std::uint32_t seq = static_cast<std::uint32_t>(w * 64 + bit);
      if (repair_deadline_ms_ > 0 &&
          now - g.emit_ms[seq] > repair_deadline_ms_) {
        ++g.stats.repair_zombies;
        // Count every subtree member that will now never see this seq.
        std::vector<std::uint32_t> stack{cslot};
        while (!stack.empty()) {
          const std::uint32_t s = stack.back();
          stack.pop_back();
          if (!holds(g, s, seq)) ++g.stats.zombie_lost_deliveries;
          for (const MemberLink& ml : g.members[s].links) {
            stack.push_back(ml.child);
          }
        }
        continue;
      }
      // Re-materialize the packet with its ORIGINAL emission time so
      // latency and any later zombie checks measure from the source
      // emit, not the repair.
      const auto bytes = static_cast<std::uint32_t>(g.traffic.packet_bytes);
      const PacketRef pkt =
          pool_.alloc(g.stats.group, seq, bytes, g.emit_ms[seq]);
      l.queue.push(g.stats.group,
                   QueuedCopy{pkt, child, next_order_++, now, false}, bytes);
      ++live_copies_;
      ++g.stats.repaired_copies;
      ++gap;
    }
  }
  g.stats.gap_packets_total += gap;
  if (gap > g.stats.gap_packets_max) g.stats.gap_packets_max = gap;
  start_tx(gidx, pslot, now);
  update_congestion(gidx, pslot, now);
}

void Forwarder::finalize(MultiGroupStats& out) {
  double all_sum = 0, all_sumsq = 0;
  std::size_t rated_groups = 0;
  double goodput_kbit = 0;
  std::vector<double> all_latencies;

  for (std::uint32_t gidx : active_) {
    Group& g = groups_[gidx];
    // Under failover the flat (members-1) * packets expectation no
    // longer holds: dead members are owed only what they had at the
    // crash, members still detached at quiesce only what actually
    // reached them, and zombie-skipped repairs are deliveries the run
    // deliberately abandoned.
    if (failover_active_) {
      std::uint64_t expected = 0;
      for (std::uint32_t slot = 0; slot < g.members.size(); ++slot) {
        if (slot == g.source) continue;
        const Member& m = g.members[slot];
        if (dead_[m.node]) {
          expected += m.frozen_delivered;
        } else if (m.detached) {
          expected += m.delivered;
        } else {
          expected += g.traffic.num_packets;
        }
      }
      expected -= std::min<std::uint64_t>(expected,
                                          g.stats.zombie_lost_deliveries);
      g.stats.copies_expected = expected;
    }
    // Session stats: the slowest receiver's steady-state rate, the mean
    // rate, completion and the first-packet spread.
    SessionStats& s = g.stats.session;
    double min_rate = kInf;
    double rate_sum = 0;
    for (std::uint32_t slot = 0; slot < g.members.size(); ++slot) {
      if (slot == g.source) continue;
      const Member& m = g.members[slot];
      ++s.receivers;
      if (m.delivered > 0) {
        if (m.last_arrival_ms > s.completion_ms) {
          s.completion_ms = m.last_arrival_ms;
        }
        if (m.first_arrival_ms > s.max_first_packet_ms) {
          s.max_first_packet_ms = m.first_arrival_ms;
        }
      }
      double rate;
      if (m.delivered >= 2 && m.last_arrival_ms > m.first_arrival_ms) {
        rate = static_cast<double>(m.delivered - 1) * g.packet_kbit /
               (m.last_arrival_ms - m.first_arrival_ms) * 1000.0;
      } else {
        rate = kInf;
      }
      if (rate < min_rate) min_rate = rate;
      rate_sum += rate == kInf ? 0 : rate;
    }
    s.session_rate_kbps = min_rate == kInf ? 0 : min_rate;
    s.mean_rate_kbps =
        s.receivers > 0 ? rate_sum / static_cast<double>(s.receivers) : 0;

    std::vector<double>& lat = g.latencies_ms;
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end());
      double sum = 0;
      for (double v : lat) sum += v;
      g.stats.mean_latency_ms = sum / static_cast<double>(lat.size());
      g.stats.p99_latency_ms = lat[(lat.size() * 99 + 99) / 100 - 1];
      all_latencies.insert(all_latencies.end(), lat.begin(), lat.end());
    }
    goodput_kbit +=
        static_cast<double>(g.stats.copies_delivered) * g.packet_kbit;
    if (s.receivers > 0) {
      ++rated_groups;
      all_sum += s.session_rate_kbps;
      all_sumsq += s.session_rate_kbps * s.session_rate_kbps;
    }
    if (s.completion_ms > out.completion_ms) {
      out.completion_ms = s.completion_ms;
    }
    out.groups.push_back(g.stats);
  }

  out.aggregate_goodput_kbps =
      out.completion_ms > 0 ? goodput_kbit / out.completion_ms * 1000.0 : 0;
  // Jain's index over per-group session rates; degenerate cases (no
  // rated group, or every rate zero) count as perfectly fair.
  out.jain_fairness =
      rated_groups == 0 || all_sumsq == 0
          ? 1.0
          : all_sum * all_sum /
                (static_cast<double>(rated_groups) * all_sumsq);
  if (!all_latencies.empty()) {
    std::sort(all_latencies.begin(), all_latencies.end());
    const std::size_t idx = (all_latencies.size() * 99 + 99) / 100 - 1;
    out.p99_latency_ms = all_latencies[idx];
  }
  out.copies_sent = copies_sent_;
  out.max_backlog_ms = max_backlog_ms_;
}

// ------------------------------------------------- the one-tree plane --

namespace {

/// The recorded tree as a plane's one group; run() names the group
/// after the stream.
std::vector<GroupShape> one_tree(const MulticastTree& tree) {
  GroupShape s;
  s.source = tree.source();
  s.members.reserve(tree.size());
  for (const auto& [id, rec] : tree.entries()) {
    s.members.push_back({id, id == tree.source() ? id : rec.parent, 0});
  }
  std::sort(s.members.begin(), s.members.end(),
            [](const GroupShape::Member& a, const GroupShape::Member& b) {
              return a.id < b.id;
            });
  return {std::move(s)};
}

}  // namespace

BackpressureForwarder::BackpressureForwarder(const MulticastTree& tree,
                                             const LatencyModel& latency,
                                             ForwarderConfig cfg,
                                             telemetry::Sink sink)
    : Forwarder(latency, one_tree(tree), cfg, SchedMode::kShared, 0, sink) {
  keep_latencies_ = false;
}

void BackpressureForwarder::resolve_uplinks(
    const std::function<double(Id)>& kbps_of) {
  std::vector<double> table(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) table[i] = kbps_of(ids_[i]);
  set_uplinks(std::move(table));
}

ForwardStats BackpressureForwarder::run(const TrafficSpec& traffic) {
  ForwardStats out;
  if (ids_.size() <= 1 || traffic.num_packets == 0) return out;
  // The tree's one group takes the stream id the bins key on.
  groups_[0].stats.group = traffic.stream;
  group_index_.clear();
  group_index_.emplace(traffic.stream, 0);
  GroupTraffic t;
  t.group = traffic.stream;
  t.packet_bytes = traffic.packet_bytes;
  t.num_packets = traffic.num_packets;
  t.source_rate_kbps = traffic.source_rate_kbps;
  const MultiGroupStats plane = Forwarder::run({t});
  const GroupRunStats& g = plane.groups.front();
  out.session = g.session;
  out.packets_emitted = g.packets_emitted;
  out.copies_sent = plane.copies_sent;
  out.copies_delivered = g.copies_delivered;
  out.copies_expected = g.copies_expected;
  out.delegated_copies = delegated_copies_;
  out.zombie_copies = zombie_copies_;
  out.zombie_bytes = zombie_bytes_;
  out.admission_pauses = g.admission_pauses;
  out.admission_paused_ms = g.admission_paused_ms;
  out.max_backlog_ms = plane.max_backlog_ms;
  out.pool_peak_in_use = pool_.peak_in_use();
  out.pool_allocs = pool_.total_allocs();
  out.pool_recycled = pool_.recycled();
  return out;
}

}  // namespace cam::dataplane
