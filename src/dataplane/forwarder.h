// The packet forwarder: one event loop for one multicast group or many.
//
// The paper's throughput model (Section 4.3) serializes every copy a
// node forwards through one FIFO uplink. Forwarder runs that plane for
// any number of groups over shared per-link queues, in the IRON/GNAT
// mold (DESIGN.md §11):
//
//   * every node keeps one BinQueue per child link, with one bin per
//     group, so two groups that share an edge contend in one queue; a
//     backpressure plane also keeps a relay queue for delegated duties;
//   * kShared: one transmitter per node serves the global-FIFO head
//     across every group's bins at the full uplink rate B_x — the paper's
//     single FIFO uplink. With one group (BackpressureForwarder) this
//     transmitter can also deviate to the steepest positive depth
//     gradient (local link backlog minus the child's advertised uplink
//     backlog) past a hysteresis, shed duty to a child that already
//     holds the packet, and drop copies older than `deadline_ms` as
//     zombies; children advertise their uplink backlog to their parent
//     on a periodic depth report, through an oracle event or through
//     DepthFeedHooks;
//   * kLedgerShares: one transmitter per (node, group) serving only that
//     group's bins at the group's ledger share of B_x, so a group's
//     schedule depends only on its own traffic and share;
//   * per-group source admission: a member whose backlog for its group
//     crosses the high watermark raises a congestion flag up that
//     group's tree; while the source's subtree flag is up, only that
//     group's emission pauses, resuming below the low watermark;
//   * FailoverScript surgery: crashes flush a node's queues, prunes stop
//     a parent forwarding to a dead child, and reattaches re-hang an
//     orphan and backfill its delivery-bitmap gap from the new parent.
//
// BackpressureForwarder is the one-tree way to build the plane;
// session::MultiGroupForwarder builds it from a SessionLayer's group
// trees and ledger shares. With `backpressure = false` (or thresholds no
// queue ever crosses) a one-tree plane is the paper's FIFO plane: the
// same packet arrival times to the last bit, which
// tests/dataplane_test.cpp pins by comparing whole result structs.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dataplane/bin_queue.h"
#include "dataplane/packet_pool.h"
#include "ids/ring.h"
#include "multicast/tree.h"
#include "sim/latency.h"
#include "telemetry/sink.h"
#include "util/flat_table.h"

namespace cam::dataplane {

/// Group (stream) id: the key of a BinQueue bin and Packet::stream.
using GroupId = std::uint64_t;

/// The packet stream a one-tree run pushes through the tree.
struct TrafficSpec {
  std::uint64_t packet_bytes = 1250;  // 10 kbit per packet
  std::uint32_t num_packets = 64;     // packets in the measured stream
  double source_rate_kbps = 0;        // 0 = source emits back-to-back
  std::uint64_t stream = 0;           // group/stream id the bins key on
};

/// Per-receiver and session-level results of one group.
struct SessionStats {
  /// Steady-state rate at the slowest receiver (kbps): delivered-1
  /// packet payloads over the time between its first and last arrival.
  double session_rate_kbps = 0;
  /// Time (ms) until the last delivered packet lands anywhere.
  SimTime completion_ms = 0;
  /// Mean per-receiver steady-state rate (kbps).
  double mean_rate_kbps = 0;
  /// First-packet delivery spread (ms): max over receivers.
  SimTime max_first_packet_ms = 0;
  std::size_t receivers = 0;
};

struct ForwarderConfig {
  /// false = the FIFO uplink plane (no gradients, no delegation, no
  /// depth reports); true = congestion-gradient forwarding. One-group
  /// planes only.
  bool backpressure = true;
  /// Minimum gradient advantage (ms of serialization backlog) before
  /// service order deviates from FIFO or a copy is delegated. Zero
  /// hysteresis would flap on ties; ties always fall back to the
  /// recorded tree order.
  double hysteresis_ms = 2.0;
  /// Congestion slack (ms) past one full fan-out burst. One copy per
  /// child is what a node holds right after any packet arrives — normal
  /// operation, served pure FIFO. Only when backlog exceeds
  /// burst + slack do gradient deviation and duty shedding activate.
  double delegation_ms = 8.0;
  /// Source admission watermarks (ms of backlog). 0 disables admission
  /// control; otherwise emission pauses while any node in the tree
  /// reports backlog above `admission_high_ms` and resumes once the
  /// congested subtree drains below `admission_low_ms`.
  double admission_high_ms = 0;
  double admission_low_ms = 0;
  /// Latency-constrained mode: a copy older than this at service time
  /// is zombied instead of transmitted. 0 = no deadline. One-group
  /// planes only.
  double deadline_ms = 0;
  /// Cadence of child -> parent uplink-backlog advertisements.
  double depth_report_interval_ms = 20.0;
};

/// External transport for child -> parent backlog advertisements
/// (DESIGN.md §11). The forwarder's default is an oracle: the depth
/// value rides inside its own simulation event. With hooks installed,
/// the value instead travels through a real protocol stack — publish()
/// hands the child's fresh backlog to the transport at report time,
/// advance() runs the transport clock forward, and sample() returns the
/// last depth the parent has actually *received* from the child (NaN =
/// nothing delivered yet; the parent keeps its previous view). See
/// proto/depth_feed.h for the HostBus piggyback binding.
struct DepthFeedHooks {
  std::function<void(Id child, double backlog_ms, SimTime now)> publish;
  std::function<void(SimTime now)> advance;
  std::function<double(Id observer, Id peer)> sample;

  explicit operator bool() const {
    return publish != nullptr && advance != nullptr && sample != nullptr;
  }
};

/// Everything one one-tree run measures.
struct ForwardStats {
  SessionStats session;
  std::uint64_t packets_emitted = 0;
  std::uint64_t copies_sent = 0;       // actual uplink transmissions
  std::uint64_t copies_delivered = 0;  // arrivals at their destination
  std::uint64_t copies_expected = 0;   // (nodes - 1) * num_packets
  std::uint64_t delegated_copies = 0;  // duties steered off a hot uplink
  std::uint64_t zombie_copies = 0;     // expired under deadline_ms
  std::uint64_t zombie_bytes = 0;
  std::uint64_t admission_pauses = 0;  // emission stop events
  SimTime admission_paused_ms = 0;     // total time emission was gated
  double max_backlog_ms = 0;           // deepest uplink backlog observed
  std::size_t pool_peak_in_use = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_recycled = 0;
};

enum class SchedMode : std::uint8_t {
  kShared,        // one FIFO uplink per node, all groups contend
  kLedgerShares,  // per-(node, group) transmitters, isolated
};

/// One group's tree as a plane is built from it.
struct GroupShape {
  struct Member {
    Id id = 0;
    Id parent = 0;          // == id for the source
    double share_kbps = 0;  // kLedgerShares rate; 0 = the full uplink
  };
  GroupId id = 0;
  Id source = 0;
  std::vector<Member> members;  // ascending id
};

/// One group's stream for a run.
struct GroupTraffic {
  GroupId group = 0;
  std::uint64_t packet_bytes = 1250;
  std::uint32_t num_packets = 64;
  double source_rate_kbps = 0;  // 0 = back-to-back
  SimTime start_ms = 0;         // emission start offset
  /// Source admission throttle in (0, 1] — SessionLayer::throttle(g)
  /// under graceful degradation. Below 1.0 the source spaces emissions
  /// at throttle * the nominal rate (back-to-back becomes paced at
  /// throttle * B_src) instead of dropping the parked subtree's share.
  double throttle = 1.0;
};

/// Mid-stream failover surgery, replayed by the event loop: oracle (or
/// detector-derived) crash instants plus the per-edge consequences the
/// control plane worked out — parent-side prunes at each watcher's
/// detection time and child reattaches (with pull gap-repair) once the
/// session layer re-hung the orphan. Ids are overlay ids; groups must
/// be streamed groups.
struct FailoverScript {
  struct Crash {
    SimTime at_ms = 0;
    Id node = 0;
  };
  struct Prune {  // `parent` stops forwarding group `group` to `child`
    SimTime at_ms = 0;
    GroupId group = 0;
    Id parent = 0;
    Id child = 0;
  };
  struct Reattach {  // `child` re-hangs under `parent`, then backfills
    SimTime at_ms = 0;
    GroupId group = 0;
    Id child = 0;
    Id parent = 0;
  };
  std::vector<Crash> crashes;
  std::vector<Prune> prunes;
  std::vector<Reattach> reattaches;

  bool empty() const {
    return crashes.empty() && prunes.empty() && reattaches.empty();
  }
};

/// Per-group results of a run.
struct GroupRunStats {
  GroupId group = 0;
  SessionStats session;
  std::uint64_t packets_emitted = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t copies_expected = 0;
  std::uint64_t duplicate_deliveries = 0;  // exactly-once: must be 0
  std::uint64_t admission_pauses = 0;
  SimTime admission_paused_ms = 0;
  double p99_latency_ms = 0;   // per-copy (arrival - emit), 99th pct
  double mean_latency_ms = 0;
  // Failover accounting (all zero when the run had no FailoverScript).
  std::uint64_t copies_lost = 0;       // flushed at crashes / dead drops
  std::uint64_t reattaches = 0;        // applied reattach events
  std::uint64_t repaired_copies = 0;   // pull-repair copies enqueued
  std::uint64_t repair_zombies = 0;    // missing seqs past the deadline
  std::uint64_t zombie_lost_deliveries = 0;  // deliveries abandoned
  std::uint64_t gap_packets_total = 0;  // sum of reattach bitmap gaps
  std::uint64_t gap_packets_max = 0;    // worst single reattach gap
  /// Relays skipped because the (reattached) child's bitmap already
  /// held the sequence — the exactly-once guard on the failover path.
  std::uint64_t suppressed_relays = 0;
};

struct MultiGroupStats {
  std::vector<GroupRunStats> groups;  // in traffic order
  /// Sum over groups of delivered payload over the whole-run makespan.
  double aggregate_goodput_kbps = 0;
  /// Jain index over per-group session rates (groups with receivers).
  double jain_fairness = 0;
  double p99_latency_ms = 0;  // across every delivery of every group
  SimTime completion_ms = 0;
  std::uint64_t copies_sent = 0;
  double max_backlog_ms = 0;  // deepest serving-rate backlog observed
};

/// The plane itself. Build it through BackpressureForwarder (one tree)
/// or session::MultiGroupForwarder (a session's groups).
class Forwarder {
 public:
  /// Dense node table, ascending id: the union of the groups' members.
  /// Index i is the `dest` space of QueuedCopy and the row of the
  /// uplink capacity table.
  const std::vector<Id>& node_ids() const { return ids_; }

  /// Installs the pre-resolved uplink capacity table (kbps, aligned
  /// with node_ids()). All rates must be positive.
  void set_uplinks(std::vector<double> kbps);

  /// Streams every group in `traffic` (each group at most once). A
  /// non-empty `script` injects mid-stream failover: crashed nodes
  /// flush their queues and stop delivering, pruned edges stop
  /// forwarding, and reattached children backfill their delivery-bitmap
  /// gap from the new parent (pull repair, repair deadline permitting).
  /// Single-shot: construct a fresh plane per run.
  MultiGroupStats run(const std::vector<GroupTraffic>& traffic,
                      const FailoverScript& script = {});

 protected:
  /// Builds the per-node links (one per (node, child) pair across every
  /// group, ascending child id) and the per-group member views.
  /// Backpressure and deadlines need exactly one group.
  Forwarder(const LatencyModel& latency,
            const std::vector<GroupShape>& groups, ForwarderConfig cfg,
            SchedMode mode, double repair_deadline_ms,
            telemetry::Sink sink);

  struct Link {
    std::uint32_t child = 0;   // dense node index
    SimTime latency_ms = 0;    // one-way, resolved at construction
    BinQueue queue;            // bins keyed by group id
    // Depth-gradient accounting: the child's last advertised uplink
    // backlog, plus a local correction for bytes delegated to it since
    // that report.
    double adv_backlog_ms = 0;
    double delegated_since_bytes = 0;
  };

  struct Node {
    double kbps = 0;           // full uplink B_x
    std::vector<Link> links;   // ascending child id; reattach appends
    bool tx_busy = false;      // kShared transmitter
  };

  /// One of a member's child links in its group.
  struct MemberLink {
    std::uint32_t link = 0;   // index into Node::links
    std::uint32_t child = 0;  // the child's member slot
  };

  /// Per-group view of one member node. Slots ascend by id; when a
  /// group spans every node (any one-tree plane) slot i is node i.
  struct Member {
    std::uint32_t node = 0;     // dense node index
    std::uint32_t parent = 0;   // member slot; own slot for the source
    SimTime parent_latency_ms = 0;
    std::vector<MemberLink> links;  // ascending child id
    double rate_kbps = 0;  // serving rate: B_x, or the ledger share
    std::uint32_t congested_children = 0;  // admission: flagged children
    std::uint32_t delivered = 0;
    std::uint32_t frozen_delivered = 0;  // delivered count at crash time
    bool vtx_busy = false;  // kLedgerShares transmitter
    // Per-group admission state (flags climb this group's tree).
    bool own_congested = false;
    bool flag_sent = false;
    /// What the parent last heard from this member (set/clear), so a
    /// prune can retract exactly the standing contribution and a
    /// reattach can transfer it to the new parent.
    bool flag_landed = false;
    bool pruned = false;    // parent stopped forwarding (member is dead)
    bool detached = false;  // upstream edge severed, reattach pending
    SimTime first_arrival_ms = 0;
    SimTime last_arrival_ms = 0;
  };

  struct Group {
    GroupTraffic traffic;
    double packet_kbit = 0;
    SimTime gen_interval = 0;
    std::uint32_t source = 0;  // member slot
    std::vector<Member> members;
    /// Node index -> member slot; empty when the group spans every node
    /// and slot i is node i.
    FlatMap<std::uint32_t, std::uint32_t> slot_of;
    std::vector<std::uint64_t> delivered_bits;  // per slot, per seq
    std::size_t words_per_member = 0;
    std::vector<SimTime> emit_ms;  // source emission time per seq
    /// kLedgerShares: (member slot, link) of pruned links that may still
    /// hold this group's copies; that member's transmitter drains them.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> draining;
    // Emission state.
    SimTime emit_offset = 0;
    std::uint32_t next_emit = 0;
    bool emission_paused = false;
    SimTime pause_start_ms = 0;
    std::vector<double> latencies_ms;  // every delivery's arrival - emit
    GroupRunStats stats;               // stats.group is the group id
  };

  const LatencyModel& latency_;
  ForwarderConfig cfg_;
  SchedMode mode_;
  double repair_deadline_ms_;
  telemetry::Sink sink_;
  DepthFeedHooks feed_;
  /// Per-delivery latency samples feed GroupRunStats' percentiles; a
  /// one-tree run reports none and skips them.
  bool keep_latencies_ = true;

  std::vector<Id> ids_;
  std::vector<Node> nodes_;
  /// Per node, the duties delegated to it (copies for foreign
  /// destinations). Backpressure planes only; empty otherwise.
  std::vector<BinQueue> relays_;
  std::vector<Group> groups_;
  FlatMap<GroupId, std::uint32_t> group_index_;
  std::vector<std::uint32_t> active_;  // streamed groups, traffic order

  PacketPool pool_;
  std::uint64_t copies_sent_ = 0;
  double max_backlog_ms_ = 0;
  std::uint64_t delegated_copies_ = 0;
  std::uint64_t zombie_copies_ = 0;
  std::uint64_t zombie_bytes_ = 0;

 private:
  enum class EventKind : std::uint8_t {
    kSourceEmit,      // dest = group index, aux = packet seq
    kArrival,         // copy lands at `node`; aux = sender's node index
    kTxFree,          // kShared: node's transmitter finished a copy
    kVtxFree,         // kLedgerShares: member `dest`'s transmitter idle
    kDelegateArrive,  // delegated duty (pkt -> node `dest`) reaches helper
    kDepthReport,     // periodic advertisement tick at `node`
    kDepthArrive,     // advertisement of child `dest` reaches parent
                      // `node` (aux = the backlog's bits)
    kFlagArrive,      // congestion flag from `node` at member slot `dest`
    kCrash,           // node dies: flush queues, freeze its expectation
    kPrune,           // node (parent) stops forwarding gidx to dest
    kReattach,        // node (child) re-hangs under dest (parent) in gidx
  };

  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;
    EventKind kind = EventKind::kSourceEmit;
    std::uint32_t node = 0;
    std::uint32_t dest = 0;  // group index / member slot / node
    std::uint32_t gidx = 0;
    PacketRef pkt = kNullPacket;
    std::uint64_t aux = 0;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push_event(Event e);
  double node_backlog_ms(std::uint32_t node) const;
  double group_backlog_ms(const Group& g, const Member& m) const;
  std::uint32_t group_of(GroupId id) const;
  std::uint32_t slot_of(const Group& g, std::uint32_t node) const;
  bool holds(const Group& g, std::uint32_t slot, std::uint32_t seq) const;
  std::uint32_t dense_index(Id id) const;
  /// Index of `n`'s link to `child`, or n.links.size() if it has none.
  static std::uint32_t find_link(const Node& n, std::uint32_t child);
  bool active() const;

  void emit(std::uint32_t gidx, std::uint32_t seq, SimTime now);
  void relay_to_children(std::uint32_t gidx, std::uint32_t slot,
                         PacketRef pkt, SimTime now);
  void start_tx(std::uint32_t gidx, std::uint32_t slot, SimTime now);
  void serve_shared(std::uint32_t node, SimTime now);
  void serve_group(std::uint32_t gidx, std::uint32_t slot, SimTime now);
  /// Schedules the arrival of a transmitted copy.
  void send(std::uint32_t sender, std::uint32_t gidx, const QueuedCopy& copy,
            SimTime at);
  void handle_arrival(const Event& e);
  void depth_report(const Event& e);
  void depth_arrive(const Event& e);
  void flag_arrive(const Event& e);
  void update_congestion(std::uint32_t gidx, std::uint32_t slot,
                         SimTime now);
  void maybe_resume(std::uint32_t gidx, SimTime now);

  void crash_node(std::uint32_t node);
  void prune_link(std::uint32_t gidx, std::uint32_t parent,
                  std::uint32_t child, SimTime now);
  void reattach(std::uint32_t gidx, std::uint32_t child,
                std::uint32_t parent, SimTime now);
  /// Flips `detached` on the subtree currently hanging from `slot`
  /// (link-reachable members), `slot` included.
  void mark_detached(Group& g, std::uint32_t slot, bool detached);

  void finalize(MultiGroupStats& out);

  std::vector<Event> heap_;
  std::uint64_t next_event_seq_ = 0;
  std::uint64_t next_order_ = 0;
  std::uint64_t live_copies_ = 0;
  bool ran_ = false;
  bool failover_active_ = false;
  std::vector<std::uint8_t> dead_;  // by dense node index
};

/// The one-tree plane: one stream over a recorded multicast tree, with
/// backpressure, delegation, depth reports and deadlines available.
class BackpressureForwarder : public Forwarder {
 public:
  /// Builds the per-node link structure from the recorded tree. Node
  /// indexing is by ascending id (deterministic across platforms).
  BackpressureForwarder(const MulticastTree& tree,
                        const LatencyModel& latency, ForwarderConfig cfg,
                        telemetry::Sink sink = {});

  /// Convenience: resolves the uplink table with one call per node at
  /// setup time, so the per-packet hot path never touches a
  /// std::function.
  void resolve_uplinks(const std::function<double(Id)>& kbps_of);

  /// Routes depth advertisements through an external transport instead
  /// of the oracle event payload. Install before run().
  void set_depth_feed(DepthFeedHooks feed) { feed_ = std::move(feed); }

  /// Runs one stream through the tree. Single-shot: construct a fresh
  /// forwarder per stream.
  ForwardStats run(const TrafficSpec& traffic);
};

}  // namespace cam::dataplane
