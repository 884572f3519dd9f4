#include "session/multi_forwarder.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace cam::session {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

MultiGroupForwarder::MultiGroupForwarder(const SessionLayer& session,
                                         const LatencyModel& latency,
                                         MultiGroupConfig cfg)
    : latency_(latency), cfg_(cfg) {
  assert(cfg_.admission_low_ms <= cfg_.admission_high_ms &&
         "admission low watermark above high watermark");
  const std::vector<GroupId> gids = session.group_ids();

  // Dense node table: the ascending-id union of every group's members
  // (the same indexing rule as the single-tree forwarder).
  for (GroupId gid : gids) {
    const GroupTree* tree = session.group(gid);
    const std::vector<Id>& members = tree->sorted_members();
    ids_.insert(ids_.end(), members.begin(), members.end());
  }
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  FlatMap<Id, std::uint32_t> index;
  index.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    index.emplace(ids_[i], static_cast<std::uint32_t>(i));
  }
  nodes_.resize(ids_.size());
  dead_.assign(ids_.size(), 0);
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    nodes_[i].kbps = session.ledger().uplink_kbps(ids_[i]);
  }

  // One Link per (node, child) pair across ALL groups: two groups that
  // share an edge share its BinQueue, so their copies contend in the
  // same place. Links sorted ascending by child id, as in the legacy
  // plane.
  std::vector<std::vector<Id>> kids(ids_.size());
  for (GroupId gid : gids) {
    const GroupTree* tree = session.group(gid);
    for (Id m : tree->sorted_members()) {
      const auto& children = tree->member(m).children;
      auto& row = kids[index.at(m)];
      row.insert(row.end(), children.begin(), children.end());
    }
  }
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    std::sort(kids[i].begin(), kids[i].end());
    kids[i].erase(std::unique(kids[i].begin(), kids[i].end()),
                  kids[i].end());
    nodes_[i].links.reserve(kids[i].size());
    for (Id c : kids[i]) {
      nodes_[i].links.push_back(
          Link{index.at(c), latency_.latency(c, ids_[i]), {}});
    }
  }

  // Per-group views: member slots ascending by id, per-member link
  // subsets, and the serving rate — full uplink under kShared, the
  // ledger share under kLedgerShares.
  groups_.reserve(gids.size());
  for (GroupId gid : gids) {
    const GroupTree* tree = session.group(gid);
    Group g;
    g.id = gid;
    const std::vector<Id>& members = tree->sorted_members();
    g.members.resize(members.size());
    g.slot_of.reserve(members.size());
    for (std::size_t s = 0; s < members.size(); ++s) {
      g.slot_of.emplace(index.at(members[s]),
                        static_cast<std::uint32_t>(s));
    }
    for (std::size_t s = 0; s < members.size(); ++s) {
      const Id m = members[s];
      const GroupTree::Member& mem = tree->member(m);
      GroupNode& gn = g.members[s];
      gn.node = index.at(m);
      if (m == tree->source()) {
        g.source_slot = static_cast<std::uint32_t>(s);
        gn.parent_slot = static_cast<std::uint32_t>(s);
      } else {
        const auto pit = std::lower_bound(members.begin(), members.end(),
                                          mem.parent);
        gn.parent_slot =
            static_cast<std::uint32_t>(pit - members.begin());
        gn.parent_latency_ms = latency_.latency(mem.parent, m);
      }
      const Node& n = nodes_[gn.node];
      gn.links.reserve(mem.children.size());
      for (Id c : mem.children) {
        const std::uint32_t child = index.at(c);
        for (std::size_t li = 0; li < n.links.size(); ++li) {
          if (n.links[li].child == child) {
            gn.links.push_back(static_cast<std::uint32_t>(li));
            break;
          }
        }
      }
      assert(gn.links.size() == mem.children.size());
      gn.rate_kbps = cfg_.mode == SchedMode::kShared || mem.children.empty()
                         ? n.kbps
                         : session.ledger().share_kbps(m, gid);
      assert(gn.rate_kbps > 0);
    }
    group_index_.emplace(gid, static_cast<std::uint32_t>(groups_.size()));
    groups_.push_back(std::move(g));
  }
}

void MultiGroupForwarder::push_event(Event e) {
  e.seq = next_event_seq_++;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

double MultiGroupForwarder::node_backlog_ms(const Node& n) const {
  std::uint64_t bytes = 0;
  for (const Link& l : n.links) bytes += l.queue.depth_bytes();
  return static_cast<double>(bytes) * 8.0 / n.kbps;
}

std::uint32_t MultiGroupForwarder::dense_index(Id id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  assert(it != ids_.end() && *it == id && "script id not in any tree");
  return static_cast<std::uint32_t>(it - ids_.begin());
}

double MultiGroupForwarder::group_backlog_ms(const Group& g,
                                             const GroupNode& gn) const {
  std::uint64_t bytes = 0;
  const Node& n = nodes_[gn.node];
  for (std::uint32_t li : gn.links) {
    bytes += n.links[li].queue.depth_bytes(g.id);
  }
  return static_cast<double>(bytes) * 8.0 / gn.rate_kbps;
}

void MultiGroupForwarder::relay_to_children(std::uint32_t gidx,
                                            std::uint32_t slot,
                                            dataplane::PacketRef pkt,
                                            SimTime now) {
  Group& g = groups_[gidx];
  GroupNode& gn = g.members[slot];
  if (gn.links.empty()) return;
  Node& n = nodes_[gn.node];
  // Round-robin rotation by sequence number over THIS group's children
  // — with one group this is exactly the legacy rotation.
  const std::uint32_t seq = pool_.get(pkt).seq;
  const std::size_t rot = seq % gn.links.size();
  for (std::size_t j = 0; j < gn.links.size(); ++j) {
    Link& l = n.links[gn.links[(j + rot) % gn.links.size()]];
    // Bitmap-aware relay: a reattached child may already hold packets
    // this parent has yet to see (delivered along its pre-failover
    // path). The child's bitmap arrived with the reattach handshake, so
    // the parent suppresses those relays instead of double-delivering.
    // Off the failover path the bit can never be set before the relay —
    // tree delivery is single-path — so this changes nothing there.
    const std::uint32_t cslot = g.slot_of.at(l.child);
    if ((g.delivered_bits[cslot * g.words_per_member + seq / 64] >>
         (seq % 64)) &
        1) {
      ++g.stats.suppressed_relays;
      continue;
    }
    pool_.add_ref(pkt);
    const std::uint32_t bytes = pool_.get(pkt).bytes;
    dataplane::QueuedCopy copy{pkt, l.child, next_order_++, now, false};
    l.queue.push(g.id, copy, bytes);
    ++live_copies_;
  }
  if (cfg_.mode == SchedMode::kShared) {
    if (!n.tx_busy) serve_shared(gn.node, now);
  } else {
    if (!gn.vtx_busy) serve_group(gidx, slot, now);
  }
  update_congestion(gidx, slot, now);
}

void MultiGroupForwarder::serve_shared(std::uint32_t node, SimTime now) {
  if (dead_[node]) return;
  Node& n = nodes_[node];
  // Global FIFO head across every group's bins on every link — the one
  // place where groups contend for the uplink under kShared.
  int fifo_q = -1;
  const dataplane::QueuedCopy* fifo = nullptr;
  for (std::size_t i = 0; i < n.links.size(); ++i) {
    const dataplane::QueuedCopy* c = n.links[i].queue.peek_fifo();
    if (c != nullptr && (fifo == nullptr || c->order < fifo->order)) {
      fifo = c;
      fifo_q = static_cast<int>(i);
    }
  }
  if (fifo == nullptr) return;  // transmitter idles

  const double my_backlog = node_backlog_ms(n);
  if (my_backlog > max_backlog_ms_) max_backlog_ms_ = my_backlog;

  Link& l = n.links[static_cast<std::size_t>(fifo_q)];
  const dataplane::Packet& pkt = pool_.get(fifo->pkt);
  const std::uint32_t gidx = group_index_.at(pkt.stream);
  dataplane::QueuedCopy copy = l.queue.pop_fifo(pkt.bytes);

  // Transmit: identical arithmetic to the legacy FIFO uplink.
  const double tx = groups_[gidx].packet_kbit / n.kbps * 1000.0;
  n.tx_busy = true;
  ++copies_sent_;
  const SimTime done = now + tx;
  Event free;
  free.time = done;
  free.kind = EventKind::kTxFree;
  free.node = node;
  push_event(free);
  Event arr;
  arr.time = done + l.latency_ms;
  arr.kind = EventKind::kArrival;
  arr.node = copy.dest;
  arr.gidx = gidx;
  arr.pkt = copy.pkt;  // the queued ref rides the transmission
  arr.aux = node;      // sender: arrivals from the dead are discarded
  push_event(arr);
  update_congestion(gidx, groups_[gidx].slot_of.at(node), now);
}

void MultiGroupForwarder::serve_group(std::uint32_t gidx,
                                      std::uint32_t slot, SimTime now) {
  Group& g = groups_[gidx];
  GroupNode& gn = g.members[slot];
  if (dead_[gn.node]) return;
  Node& n = nodes_[gn.node];
  // FIFO head among THIS group's bins only: the virtual transmitter
  // never sees other groups' queued bytes.
  int fifo_q = -1;
  const dataplane::QueuedCopy* fifo = nullptr;
  for (std::uint32_t li : gn.links) {
    const dataplane::QueuedCopy* c = n.links[li].queue.peek_stream(g.id);
    if (c != nullptr && (fifo == nullptr || c->order < fifo->order)) {
      fifo = c;
      fifo_q = static_cast<int>(li);
    }
  }
  if (fifo == nullptr) return;

  const double my_backlog = group_backlog_ms(g, gn);
  if (my_backlog > max_backlog_ms_) max_backlog_ms_ = my_backlog;

  Link& l = n.links[static_cast<std::size_t>(fifo_q)];
  const dataplane::Packet& pkt = pool_.get(fifo->pkt);
  dataplane::QueuedCopy copy = l.queue.pop_stream(g.id, pkt.bytes);

  const double tx = g.packet_kbit / gn.rate_kbps * 1000.0;
  gn.vtx_busy = true;
  ++copies_sent_;
  const SimTime done = now + tx;
  Event free;
  free.time = done;
  free.kind = EventKind::kVtxFree;
  free.node = gn.node;
  free.dest = slot;
  free.gidx = gidx;
  push_event(free);
  Event arr;
  arr.time = done + l.latency_ms;
  arr.kind = EventKind::kArrival;
  arr.node = copy.dest;
  arr.gidx = gidx;
  arr.pkt = copy.pkt;
  arr.aux = gn.node;  // sender: arrivals from the dead are discarded
  push_event(arr);
  update_congestion(gidx, slot, now);
}

void MultiGroupForwarder::handle_arrival(const Event& e) {
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
  const std::uint32_t slot = g.slot_of.at(e.node);
  GroupNode& gn = g.members[slot];
  const dataplane::Packet& pkt = pool_.get(e.pkt);
  std::uint64_t& word =
      g.delivered_bits[slot * g.words_per_member + pkt.seq / 64];
  if ((word >> (pkt.seq % 64)) & 1) ++g.stats.duplicate_deliveries;
  word |= std::uint64_t{1} << (pkt.seq % 64);
  ++gn.delivered;
  ++g.stats.copies_delivered;
  if (e.time < gn.first_arrival_ms) gn.first_arrival_ms = e.time;
  if (e.time > gn.last_arrival_ms) gn.last_arrival_ms = e.time;
  g.latencies_ms.push_back(e.time - pkt.emitted_ms);
  relay_to_children(e.gidx, slot, e.pkt, e.time);
  pool_.release(e.pkt);
  --live_copies_;
}

void MultiGroupForwarder::update_congestion(std::uint32_t gidx,
                                            std::uint32_t slot,
                                            SimTime now) {
  if (cfg_.admission_high_ms <= 0) return;
  Group& g = groups_[gidx];
  GroupNode& gn = g.members[slot];
  if (dead_[gn.node]) return;  // the dead raise no flags
  const double b = group_backlog_ms(g, gn);
  if (!gn.own_congested && b > cfg_.admission_high_ms) {
    gn.own_congested = true;
  } else if (gn.own_congested && b < cfg_.admission_low_ms) {
    gn.own_congested = false;
  }
  const bool subtree = gn.own_congested || gn.congested_children > 0;
  if (slot == g.source_slot) {
    if (!subtree) maybe_resume(gidx, now);
    return;
  }
  if (subtree != gn.flag_sent) {
    gn.flag_sent = subtree;
    Event e;
    e.time = now + gn.parent_latency_ms;
    e.kind = EventKind::kFlagArrive;
    e.node = gn.node;
    e.dest = gn.parent_slot;
    e.gidx = gidx;
    e.aux = subtree ? 1 : 0;
    push_event(e);
  }
}

void MultiGroupForwarder::maybe_resume(std::uint32_t gidx, SimTime now) {
  Group& g = groups_[gidx];
  if (!g.emission_paused) return;
  g.emission_paused = false;
  g.stats.admission_paused_ms += now - g.pause_start_ms;
  // Re-anchor this group's emission clock; the others are untouched.
  g.emit_offset = now - static_cast<SimTime>(g.next_emit) * g.gen_interval;
  Event e;
  e.time = now;
  e.kind = EventKind::kSourceEmit;
  e.node = g.members[g.source_slot].node;
  e.dest = gidx;
  e.aux = g.next_emit;
  push_event(e);
}

void MultiGroupForwarder::emit(std::uint32_t gidx, std::uint32_t seq,
                               SimTime now) {
  Group& g = groups_[gidx];
  GroupNode& src = g.members[g.source_slot];
  const bool subtree_congested =
      cfg_.admission_high_ms > 0 &&
      (src.own_congested || src.congested_children > 0);
  if (subtree_congested) {
    // Only THIS group's emission gates; other groups keep streaming.
    g.emission_paused = true;
    g.pause_start_ms = now;
    ++g.stats.admission_pauses;
    return;  // maybe_resume() re-schedules this seq when the flag clears
  }
  dataplane::PacketRef pkt = pool_.alloc(
      g.id, seq, static_cast<std::uint32_t>(g.traffic.packet_bytes), now);
  g.delivered_bits[g.source_slot * g.words_per_member + seq / 64] |=
      std::uint64_t{1} << (seq % 64);
  g.emit_ms[seq] = now;
  ++g.stats.packets_emitted;
  relay_to_children(gidx, g.source_slot, pkt, now);
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

MultiGroupStats MultiGroupForwarder::run(
    const std::vector<GroupTraffic>& traffic,
    const FailoverScript& script) {
  assert(!ran_ && "MultiGroupForwarder is single-shot");
  ran_ = true;
  failover_active_ = !script.empty();
  MultiGroupStats out;

  for (const GroupTraffic& t : traffic) {
    auto it = group_index_.find(t.group);
    assert(it != group_index_.end() && "traffic for an unknown group");
    const std::uint32_t gidx = it->second;
    Group& g = groups_[gidx];
    assert(g.words_per_member == 0 && "one traffic entry per group");
    assert(t.throttle > 0 && t.throttle <= 1.0);
    g.traffic = t;
    g.packet_kbit =
        static_cast<double>(t.packet_bytes) * 8.0 / 1000.0;
    if (t.throttle < 1.0) {
      // Degraded source: pace at throttle * the nominal rate. A
      // back-to-back source throttles against its own uplink B_src —
      // the fastest it could have emitted.
      const double nominal =
          t.source_rate_kbps > 0
              ? t.source_rate_kbps
              : nodes_[g.members[g.source_slot].node].kbps;
      g.gen_interval = g.packet_kbit / (nominal * t.throttle) * 1000.0;
    } else {
      g.gen_interval = t.source_rate_kbps > 0
                           ? g.packet_kbit / t.source_rate_kbps * 1000.0
                           : 0.0;
    }
    g.words_per_member = (t.num_packets + 63) / 64;
    g.delivered_bits.assign(g.members.size() * g.words_per_member, 0);
    g.emit_ms.assign(t.num_packets, 0);
    g.stats.group = g.id;
    g.stats.copies_expected =
        g.members.size() > 1
            ? static_cast<std::uint64_t>(g.members.size() - 1) *
                  t.num_packets
            : 0;
    g.emit_offset = t.start_ms;
    for (GroupNode& gn : g.members) {
      gn.first_arrival_ms = kInf;
      gn.last_arrival_ms = 0;
    }
    active_.push_back(gidx);
  }

  pool_.reserve(2 * nodes_.size() + 64);
  heap_.reserve(4 * nodes_.size() + 16);
  for (Node& n : nodes_) {
    for (Link& l : n.links) l.queue.reserve(1, 8);
  }

  for (std::uint32_t gidx : active_) {
    Group& g = groups_[gidx];
    if (g.members.size() <= 1 || g.traffic.num_packets == 0) continue;
    Event first;
    first.time = g.traffic.start_ms;
    first.kind = EventKind::kSourceEmit;
    first.node = g.members[g.source_slot].node;
    first.dest = gidx;
    first.aux = 0;
    push_event(first);
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
      case EventKind::kFlagArrive: {
        Group& g = groups_[e.gidx];
        GroupNode& parent = g.members[e.dest];
        GroupNode& sender = g.members[g.slot_of.at(e.node)];
        // Stale control traffic around failover: flags from (or to) the
        // dead are void, as is a flag aimed at a parent the sender has
        // since been re-hung away from — reattach already synthesized
        // the sender's standing contribution at the new parent.
        if (dead_[e.node] || dead_[parent.node] || sender.pruned ||
            sender.parent_slot != e.dest) {
          break;
        }
        sender.flag_landed = e.aux != 0;
        if (e.aux != 0) {
          ++parent.congested_children;
        } else {
          assert(parent.congested_children > 0);
          --parent.congested_children;
        }
        update_congestion(e.gidx, e.dest, e.time);
        break;
      }
      case EventKind::kCrash:
        crash_node(e.node, e.time);
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

  finalize(out);
  return out;
}

void MultiGroupForwarder::crash_node(std::uint32_t node, SimTime now) {
  (void)now;
  assert(!dead_[node] && "node crashed twice");
  dead_[node] = 1;
  // Everything queued at the dead node's uplink evaporates with it.
  Node& n = nodes_[node];
  for (Link& l : n.links) {
    while (const dataplane::QueuedCopy* c = l.queue.peek_fifo()) {
      const std::uint32_t bytes = pool_.get(c->pkt).bytes;
      const std::uint32_t gidx =
          group_index_.at(pool_.get(c->pkt).stream);
      const dataplane::QueuedCopy copy = l.queue.pop_fifo(bytes);
      ++groups_[gidx].stats.copies_lost;
      pool_.release(copy.pkt);
      --live_copies_;
    }
  }
  // The member can never deliver more than it had: freeze expectation
  // at the crash-time count (finalize swaps it in for dead members).
  for (std::uint32_t gidx : active_) {
    Group& g = groups_[gidx];
    const auto it = g.slot_of.find(node);
    if (it == g.slot_of.end()) continue;
    assert(it->second != g.source_slot &&
           "script crashed a streamed group's source");
    g.members[it->second].frozen_delivered = g.members[it->second].delivered;
  }
}

void MultiGroupForwarder::mark_detached(Group& g, std::uint32_t slot,
                                        bool detached) {
  std::vector<std::uint32_t> stack{slot};
  while (!stack.empty()) {
    const std::uint32_t s = stack.back();
    stack.pop_back();
    GroupNode& gn = g.members[s];
    gn.detached = detached;
    const Node& n = nodes_[gn.node];
    for (std::uint32_t li : gn.links) {
      stack.push_back(g.slot_of.at(n.links[li].child));
    }
  }
}

void MultiGroupForwarder::prune_link(std::uint32_t gidx,
                                     std::uint32_t parent,
                                     std::uint32_t child, SimTime now) {
  Group& g = groups_[gidx];
  GroupNode& pn = g.members[g.slot_of.at(parent)];
  GroupNode& cn = g.members[g.slot_of.at(child)];
  // The whole limb below the dead child is cut off until each orphan's
  // reattach lands (expectation accounting for members still detached
  // at the end of the run).
  mark_detached(g, g.slot_of.at(child), true);
  cn.pruned = true;
  // Copies already queued on the pruned link still drain — the parent
  // spent that uplink before detection — and evaporate on arrival at
  // the dead child. Only future relays skip the edge.
  for (auto it = pn.links.begin(); it != pn.links.end(); ++it) {
    if (nodes_[pn.node].links[*it].child == child) {
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
  update_congestion(gidx, g.slot_of.at(parent), now);
}

void MultiGroupForwarder::reattach(std::uint32_t gidx, std::uint32_t child,
                                   std::uint32_t parent, SimTime now) {
  Group& g = groups_[gidx];
  // A cascade can kill either end between the announce and this event;
  // the next detection round re-hangs the orphan elsewhere.
  if (dead_[child] || dead_[parent]) return;
  const std::uint32_t cslot = g.slot_of.at(child);
  const std::uint32_t pslot = g.slot_of.at(parent);
  GroupNode& cn = g.members[cslot];
  GroupNode& pn = g.members[pslot];
  Node& n = nodes_[pn.node];

  // Find-or-create the node-level link (two groups sharing the new edge
  // share its BinQueue, same as at construction). Appending keeps every
  // stored link index valid. Latency argument order mirrors the ctor.
  std::uint32_t li = static_cast<std::uint32_t>(n.links.size());
  for (std::uint32_t i = 0; i < n.links.size(); ++i) {
    if (n.links[i].child == child) {
      li = i;
      break;
    }
  }
  if (li == n.links.size()) {
    n.links.push_back(
        Link{child, latency_.latency(ids_[child], ids_[parent]), {}});
    n.links[li].queue.reserve(1, 8);
  }
  pn.links.push_back(li);
  cn.parent_slot = pslot;
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
  // unless the packet is past the zombie deadline (a repair nobody
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
      if (cfg_.repair_deadline_ms > 0 &&
          now - g.emit_ms[seq] > cfg_.repair_deadline_ms) {
        ++g.stats.repair_zombies;
        // Count every subtree member that will now never see this seq.
        std::vector<std::uint32_t> stack{cslot};
        while (!stack.empty()) {
          const std::uint32_t s = stack.back();
          stack.pop_back();
          const GroupNode& sn = g.members[s];
          const std::uint64_t word =
              g.delivered_bits[s * g.words_per_member + seq / 64];
          if (((word >> (seq % 64)) & 1) == 0) {
            ++g.stats.zombie_lost_deliveries;
          }
          for (std::uint32_t sli : sn.links) {
            stack.push_back(
                g.slot_of.at(nodes_[sn.node].links[sli].child));
          }
        }
        continue;
      }
      // Re-materialize the packet with its ORIGINAL emission time so
      // latency and any later zombie checks measure from the source
      // emit, not the repair.
      dataplane::PacketRef pkt = pool_.alloc(
          g.id, seq, static_cast<std::uint32_t>(g.traffic.packet_bytes),
          g.emit_ms[seq]);
      const dataplane::QueuedCopy copy{pkt, child, next_order_++, now,
                                       false};
      l.queue.push(g.id, copy, static_cast<std::uint32_t>(
                                   g.traffic.packet_bytes));
      ++live_copies_;
      ++g.stats.repaired_copies;
      ++gap;
    }
  }
  g.stats.gap_packets_total += gap;
  if (gap > g.stats.gap_packets_max) g.stats.gap_packets_max = gap;
  if (cfg_.mode == SchedMode::kShared) {
    if (!n.tx_busy) serve_shared(pn.node, now);
  } else {
    if (!pn.vtx_busy) serve_group(gidx, pslot, now);
  }
  update_congestion(gidx, pslot, now);
}

void MultiGroupForwarder::finalize(MultiGroupStats& out) {
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
        if (slot == g.source_slot) continue;
        const GroupNode& gn = g.members[slot];
        if (dead_[gn.node]) {
          expected += gn.frozen_delivered;
        } else if (gn.detached) {
          expected += gn.delivered;
        } else {
          expected += g.traffic.num_packets;
        }
      }
      expected -= std::min<std::uint64_t>(expected,
                                          g.stats.zombie_lost_deliveries);
      g.stats.copies_expected = expected;
    }
    // Session stats, computed exactly as the legacy FIFO plane does so
    // single-group runs compare field-for-field.
    dataplane::SessionStats& s = g.stats.session;
    double min_rate = kInf;
    double rate_sum = 0;
    for (std::uint32_t slot = 0; slot < g.members.size(); ++slot) {
      if (slot == g.source_slot) continue;
      const GroupNode& n = g.members[slot];
      ++s.receivers;
      if (n.delivered > 0) {
        if (n.last_arrival_ms > s.completion_ms) {
          s.completion_ms = n.last_arrival_ms;
        }
        if (n.first_arrival_ms > s.max_first_packet_ms) {
          s.max_first_packet_ms = n.first_arrival_ms;
        }
      }
      double rate;
      if (n.delivered >= 2 && n.last_arrival_ms > n.first_arrival_ms) {
        rate = static_cast<double>(n.delivered - 1) * g.packet_kbit /
               (n.last_arrival_ms - n.first_arrival_ms) * 1000.0;
      } else {
        rate = kInf;
      }
      if (rate < min_rate) min_rate = rate;
      rate_sum += rate == kInf ? 0 : rate;
    }
    s.session_rate_kbps = min_rate == kInf ? 0 : min_rate;
    s.mean_rate_kbps =
        s.receivers > 0 ? rate_sum / static_cast<double>(s.receivers) : 0;

    if (!g.latencies_ms.empty()) {
      std::vector<double> sorted = g.latencies_ms;
      std::sort(sorted.begin(), sorted.end());
      double sum = 0;
      for (double v : sorted) sum += v;
      g.stats.mean_latency_ms = sum / static_cast<double>(sorted.size());
      const std::size_t idx = (sorted.size() * 99 + 99) / 100 - 1;
      g.stats.p99_latency_ms = sorted[idx];
      all_latencies.insert(all_latencies.end(), sorted.begin(),
                           sorted.end());
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

}  // namespace cam::session
