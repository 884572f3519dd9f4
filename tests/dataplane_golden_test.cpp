// Forwarder golden: congested, delegating, ledger-share and failover
// schedules pinned to the bit.
//
// The other forwarder tests compare two runs with each other (FIFO vs
// uncongested backpressure, oracle vs piggyback depth transport, solo vs
// shared). This file pins the absolute outputs instead: every field of
// ForwardStats, GroupRunStats and MultiGroupStats, printed with %.17g,
// for
//
//   * BackpressureForwarder on a CAM-Chord and a CAM-Koorde tree of 300
//     nodes: FIFO, uncongested backpressure, a 0.25x hotspot relay (FIFO
//     and backpressure), a deadline, admission watermarks, and depth
//     reports over proto::DepthFeed on a lossless and a lossy HostBus,
//     for the hotspot alone and for a slow region (the hotspot and its
//     children at 0.25x), where a lost report moves the schedule;
//   * MultiGroupForwarder on a multi-group session, in kShared and
//     kLedgerShares, with per-group admission, one throttled group,
//     staggered starts and both paced and back-to-back sources, then a
//     hand-built FailoverScript (crash, prunes, reattaches) run with and
//     without a repair deadline;
//   * in dataplane_depth_edges.txt, the hotspot backpressure plane over
//     per-edge latencies below, above and exactly at the 20 ms
//     depth-report interval, with the oracle transport and over a
//     lossless and a lossy DepthFeed.
//
// The test also asserts that each mechanism fires (delegations,
// zombies, pauses, repaired copies, repair zombies) and that no copy is
// delivered twice, so the golden cannot silently pin a schedule in which
// the mechanism it names never ran.
//
// Regenerate with CAM_REGEN_GOLDENS=1 (the test then fails once,
// naming the file it wrote).
#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataplane/forwarder.h"
#include "multicast/metrics.h"
#include "multicast/tree.h"
#include "proto/depth_feed.h"
#include "proto/host_bus.h"
#include "session/multi_forwarder.h"
#include "session/session.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "strategy/strategy.h"
#include "util/flat_table.h"
#include "workload/population.h"

namespace cam {
namespace {

using dataplane::BackpressureForwarder;
using dataplane::ForwarderConfig;
using dataplane::ForwardStats;
using dataplane::TrafficSpec;
using session::FailoverScript;
using session::GroupRunStats;
using session::GroupTraffic;
using session::JoinOutcome;
using session::MultiGroupConfig;
using session::MultiGroupForwarder;
using session::MultiGroupStats;
using session::SchedMode;
using session::SessionLayer;

std::string golden_path(const std::string& name) {
  return std::string(CAM_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

std::string render(const dataplane::SessionStats& s) {
  return fmt("rate=%.17g completion=%.17g mean=%.17g first=%.17g "
             "receivers=%zu",
             s.session_rate_kbps, s.completion_ms, s.mean_rate_kbps,
             s.max_first_packet_ms, s.receivers);
}

std::string render(const ForwardStats& s) {
  return render(s.session) +
         fmt(" emitted=%llu sent=%llu delivered=%llu expected=%llu "
             "delegated=%llu zombies=%llu zombie_bytes=%llu pauses=%llu "
             "paused_ms=%.17g max_backlog=%.17g pool_peak=%zu "
             "pool_allocs=%llu pool_recycled=%llu",
             static_cast<unsigned long long>(s.packets_emitted),
             static_cast<unsigned long long>(s.copies_sent),
             static_cast<unsigned long long>(s.copies_delivered),
             static_cast<unsigned long long>(s.copies_expected),
             static_cast<unsigned long long>(s.delegated_copies),
             static_cast<unsigned long long>(s.zombie_copies),
             static_cast<unsigned long long>(s.zombie_bytes),
             static_cast<unsigned long long>(s.admission_pauses),
             s.admission_paused_ms, s.max_backlog_ms, s.pool_peak_in_use,
             static_cast<unsigned long long>(s.pool_allocs),
             static_cast<unsigned long long>(s.pool_recycled));
}

std::string render(const GroupRunStats& g) {
  return fmt("  group=%llu ", static_cast<unsigned long long>(g.group)) +
         render(g.session) +
         fmt(" emitted=%llu delivered=%llu expected=%llu dups=%llu "
             "pauses=%llu paused_ms=%.17g p99=%.17g mean_latency=%.17g "
             "lost=%llu reattaches=%llu repaired=%llu repair_zombies=%llu "
             "zombie_lost=%llu gap_total=%llu gap_max=%llu "
             "suppressed=%llu\n",
             static_cast<unsigned long long>(g.packets_emitted),
             static_cast<unsigned long long>(g.copies_delivered),
             static_cast<unsigned long long>(g.copies_expected),
             static_cast<unsigned long long>(g.duplicate_deliveries),
             static_cast<unsigned long long>(g.admission_pauses),
             g.admission_paused_ms, g.p99_latency_ms, g.mean_latency_ms,
             static_cast<unsigned long long>(g.copies_lost),
             static_cast<unsigned long long>(g.reattaches),
             static_cast<unsigned long long>(g.repaired_copies),
             static_cast<unsigned long long>(g.repair_zombies),
             static_cast<unsigned long long>(g.zombie_lost_deliveries),
             static_cast<unsigned long long>(g.gap_packets_total),
             static_cast<unsigned long long>(g.gap_packets_max),
             static_cast<unsigned long long>(g.suppressed_relays));
}

std::string render(const MultiGroupStats& s) {
  std::string out = fmt(
      " goodput=%.17g jain=%.17g p99=%.17g completion=%.17g sent=%llu "
      "max_backlog=%.17g\n",
      s.aggregate_goodput_kbps, s.jain_fairness, s.p99_latency_ms,
      s.completion_ms, static_cast<unsigned long long>(s.copies_sent),
      s.max_backlog_ms);
  for (const GroupRunStats& g : s.groups) out += render(g);
  return out;
}

// ------------------------------------------------ one-tree forwarder --

constexpr std::size_t kTreeNodes = 300;
constexpr double kLinkMs = 10.0;

/// A tree with its uplink table (ascending id, the forwarder's order):
/// intact, with its busiest non-source relay cut to 0.25x, and with that
/// relay and each of its children cut to 0.25x (the slow region).
struct TreeCase {
  MulticastTree tree;
  std::vector<double> intact;
  std::vector<double> hotspot;
  std::vector<double> slow_region;
  double analytic_kbps = 0;
};

TreeCase make_tree_case(const FrozenDirectory& dir, const char* key) {
  TreeCase c{strategy::registry().make(key).build_tree(
                 dir, dir.ids()[7], strategy::StrategyParams{}),
             {}, {}, {}, 0};
  FlatMap<Id, std::size_t> children;
  for (const auto& [id, rec] : c.tree.entries()) {
    if (id != c.tree.source()) ++children[rec.parent];
  }
  Id hot = 0;
  std::size_t most = 0;
  for (const auto& [id, count] : children) {
    if (id == c.tree.source()) continue;
    if (count > most || (count == most && id < hot)) {
      hot = id;
      most = count;
    }
  }
  std::vector<std::pair<Id, Id>> nodes;  // (id, parent)
  for (const auto& [id, rec] : c.tree.entries()) {
    nodes.emplace_back(id, rec.parent);
  }
  std::sort(nodes.begin(), nodes.end());
  for (const auto& [id, parent] : nodes) {
    const double kbps = dir.info(id).bandwidth_kbps;
    c.intact.push_back(kbps);
    c.hotspot.push_back(id == hot ? kbps * 0.25 : kbps);
    c.slow_region.push_back(id == hot || parent == hot ? kbps * 0.25 : kbps);
  }
  c.analytic_kbps = tree_throughput_kbps(
      c.tree, [&dir](Id x) { return dir.info(x).bandwidth_kbps; });
  return c;
}

TrafficSpec paced(double rate_kbps) {
  TrafficSpec t;
  t.packet_bytes = 1250;
  t.num_packets = 40;
  t.source_rate_kbps = rate_kbps;
  t.stream = 5;
  return t;
}

ForwardStats run_tree(const MulticastTree& tree, const LatencyModel& lat,
                      const std::vector<double>& uplinks,
                      ForwarderConfig cfg, const TrafficSpec& traffic) {
  BackpressureForwarder fwd(tree, lat, cfg);
  fwd.set_uplinks(uplinks);
  return fwd.run(traffic);
}

/// Depth reports through proto::DepthFeed over a HostBus driven by the
/// same latency model; `loss` > 0 drops heartbeats with a fixed seed.
struct FeedRun {
  ForwardStats stats;
  std::uint64_t heartbeats = 0;
  std::uint64_t dropped = 0;
};

FeedRun run_feed(const MulticastTree& tree, const LatencyModel& lat,
                 const std::vector<double>& uplinks, ForwarderConfig cfg,
                 const TrafficSpec& traffic, double loss) {
  Simulator sim;
  Network net(sim, lat);
  proto::HostBus bus(net);
  if (loss > 0) bus.set_loss(loss, 4242);
  proto::DepthFeed feed(bus);
  for (const auto& [child, rec] : tree.entries()) {
    if (child != tree.source()) feed.register_edge(child, rec.parent);
  }
  BackpressureForwarder fwd(tree, lat, cfg);
  fwd.set_uplinks(uplinks);
  fwd.set_depth_feed(feed.hooks());
  FeedRun r;
  r.stats = fwd.run(traffic);
  r.heartbeats = feed.heartbeats_sent();
  r.dropped = bus.messages_dropped();
  return r;
}

/// The "feed-lossless" and "feed-lossy" lines: depth reports over a
/// lossless DepthFeed, then one that drops 30 % of the heartbeats. With
/// `loss_moves` the lossy run must differ from the lossless one in some
/// ForwardStats field, not only in the heartbeats dropped.
std::string feed_lines(const std::string& name, const MulticastTree& tree,
                       const LatencyModel& lat,
                       const std::vector<double>& uplinks,
                       ForwarderConfig cfg, const TrafficSpec& traffic,
                       bool loss_moves = false) {
  std::string out;
  std::string lossless;
  for (double loss : {0.0, 0.3}) {
    const FeedRun r = run_feed(tree, lat, uplinks, cfg, traffic, loss);
    const std::string stats = render(r.stats);
    EXPECT_GT(r.heartbeats, 0u) << name;
    EXPECT_EQ(r.stats.copies_delivered, r.stats.copies_expected) << name;
    if (loss == 0) {
      EXPECT_EQ(r.dropped, 0u) << name;
      lossless = stats;
    } else {
      EXPECT_GT(r.dropped, 0u) << name;
      if (loss_moves) {
        EXPECT_NE(stats, lossless) << name;
      }
    }
    out += name + (loss == 0 ? " feed-lossless " : " feed-lossy ") + stats +
           fmt(" heartbeats=%llu dropped=%llu\n",
               static_cast<unsigned long long>(r.heartbeats),
               static_cast<unsigned long long>(r.dropped));
  }
  return out;
}

std::string tree_cases(const char* key, const FrozenDirectory& dir) {
  const TreeCase c = make_tree_case(dir, key);
  const std::string name = strategy::registry().display_name(key);
  // Half the analytic rate: the intact tree carries it without queueing,
  // the quartered relay cannot.
  const TrafficSpec traffic = paced(c.analytic_kbps * 0.5);
  std::string out;
  auto line = [&](const char* label, const ForwardStats& s) {
    out += name + " " + label + " " + render(s) + "\n";
  };

  ForwarderConfig fifo;
  fifo.backpressure = false;
  ForwarderConfig bp;
  bp.backpressure = true;
  const ConstantLatency lat(kLinkMs);

  const ForwardStats intact_fifo =
      run_tree(c.tree, lat, c.intact, fifo, traffic);
  const ForwardStats intact_bp = run_tree(c.tree, lat, c.intact, bp, traffic);
  EXPECT_EQ(intact_bp.delegated_copies, 0u) << name;
  EXPECT_EQ(intact_fifo.copies_delivered, intact_fifo.copies_expected);
  line("fifo", intact_fifo);
  line("backpressure", intact_bp);

  const ForwardStats hot_fifo = run_tree(c.tree, lat, c.hotspot, fifo, traffic);
  const ForwardStats hot_bp = run_tree(c.tree, lat, c.hotspot, bp, traffic);
  EXPECT_GT(hot_bp.delegated_copies, 0u) << name;
  EXPECT_EQ(hot_bp.copies_delivered, hot_bp.copies_expected) << name;
  line("hotspot-fifo", hot_fifo);
  line("hotspot-backpressure", hot_bp);

  ForwarderConfig deadline = bp;
  deadline.deadline_ms = 250.0;
  const ForwardStats zombies =
      run_tree(c.tree, lat, c.hotspot, deadline, traffic);
  EXPECT_GT(zombies.zombie_copies, 0u) << name;
  line("hotspot-deadline", zombies);

  ForwarderConfig admission = bp;
  admission.admission_high_ms = 60.0;
  admission.admission_low_ms = 20.0;
  const ForwardStats paused =
      run_tree(c.tree, lat, c.hotspot, admission, traffic);
  EXPECT_GT(paused.admission_pauses, 0u) << name;
  line("hotspot-admission", paused);

  out += feed_lines(name, c.tree, lat, c.hotspot, bp, traffic);
  // In the slow region the hotspot's children queue too, so the backlogs
  // they advertise are non-zero and a lost report leaves the hotspot
  // choosing on a stale one.
  out += feed_lines(name + " slow-region", c.tree, lat, c.slow_region, bp,
                    traffic, /*loss_moves=*/true);
  return out;
}

// ------------------------------- depth reports over per-edge latencies --

/// The forwarder's depth-report interval (dataplane/forwarder.cpp).
constexpr double kReportIntervalMs = 20.0;

/// Per-edge latencies around the depth-report interval. About a third of
/// the edges take exactly the interval, so a report reaches the parent
/// on the instant of the next report tick; the others take 4..16 ms or
/// 24..40 ms, so the parent hears them between report instants.
class ReportEdgeLatency final : public LatencyModel {
 public:
  SimTime latency(Id a, Id b) const override {
    if (a == b) return 0;
    const double u = draw_.latency(a, b);  // uniform in [0, 1) per edge
    if (u < 1.0 / 3) return 4.0 + 36.0 * u;
    if (u < 2.0 / 3) return kReportIntervalMs;
    return 24.0 + 48.0 * (u - 2.0 / 3);
  }

 private:
  UniformLatency draw_{0.0, 1.0, 2020};
};

std::string edge_latency_cases(const char* key, const FrozenDirectory& dir) {
  const TreeCase c = make_tree_case(dir, key);
  const std::string name = strategy::registry().display_name(key);
  const ReportEdgeLatency lat;
  std::size_t below = 0, at = 0, above = 0;
  for (const auto& [id, rec] : c.tree.entries()) {
    if (id == c.tree.source()) continue;
    const SimTime ms = lat.latency(id, rec.parent);
    ++(ms < kReportIntervalMs ? below : ms == kReportIntervalMs ? at : above);
  }
  EXPECT_GT(below, 0u) << name;
  EXPECT_GT(at, 0u) << name;
  EXPECT_GT(above, 0u) << name;

  const TrafficSpec traffic = paced(c.analytic_kbps * 0.5);
  ForwarderConfig bp;
  bp.backpressure = true;
  const ForwardStats oracle = run_tree(c.tree, lat, c.hotspot, bp, traffic);
  EXPECT_GT(oracle.delegated_copies, 0u) << name;
  EXPECT_EQ(oracle.copies_delivered, oracle.copies_expected) << name;
  return name + fmt(" edges below=%zu at=%zu above=%zu\n", below, at, above) +
         name + " hotspot-backpressure " + render(oracle) + "\n" +
         feed_lines(name, c.tree, lat, c.hotspot, bp, traffic);
}

// ------------------------------------------- multi-group forwarder --

constexpr std::size_t kSessionNodes = 120;

/// Six groups over 120 nodes: three share one source (their copies all
/// cross its uplink), the rest are rooted elsewhere. Memberships overlap
/// so interior relays carry several groups' bins on one link.
struct Session {
  FrozenDirectory dir;
  std::unique_ptr<SessionLayer> layer;
};

Session make_session() {
  workload::PopulationSpec spec;
  spec.n = kSessionNodes;
  spec.ring_bits = 14;
  spec.seed = 31;
  Session s{workload::uniform_capacity_population(spec, 4, 8).freeze(),
            nullptr};
  s.layer = std::make_unique<SessionLayer>(
      s.dir, strategy::registry().make("camchord"));
  const std::vector<Id>& ids = s.dir.ids();
  const std::size_t sources[6] = {0, 0, 0, 40, 80, 100};
  for (std::size_t g = 0; g < 6; ++g) {
    EXPECT_TRUE(s.layer->create_group(g + 1, ids[sources[g]]));
  }
  // Joins interleave across groups so the shared source's budget is not
  // spent by the first group alone.
  for (std::size_t k = 0; k < 36; ++k) {
    for (std::size_t g = 0; g < 6; ++g) {
      const std::size_t at = (sources[g] + 1 + (g + 1) * k * 7) % ids.size();
      if (at == sources[g]) continue;
      const JoinOutcome o = s.layer->join(g + 1, ids[at]).outcome;
      EXPECT_TRUE(o == JoinOutcome::kJoined ||
                  o == JoinOutcome::kAlreadyMember ||
                  o == JoinOutcome::kNoCapacity);
    }
  }
  EXPECT_TRUE(s.layer->check().empty());
  return s;
}

std::vector<GroupTraffic> session_traffic() {
  std::vector<GroupTraffic> traffic;
  for (session::GroupId g = 1; g <= 6; ++g) {
    GroupTraffic t;
    t.group = g;
    t.num_packets = 24 + 4 * static_cast<std::uint32_t>(g);
    t.start_ms = 15.0 * static_cast<double>(g - 1);
    // Groups 2 and 4 are back-to-back bursts; the others are paced.
    t.source_rate_kbps = g == 2 || g == 4 ? 0 : 40.0 + 10.0 * g;
    if (g == 3) t.throttle = 0.5;  // a degraded source
    traffic.push_back(t);
  }
  return traffic;
}

std::string session_case(const char* label, const SessionLayer& layer,
                         MultiGroupConfig cfg,
                         const std::vector<GroupTraffic>& traffic,
                         const FailoverScript& script,
                         MultiGroupStats* out = nullptr) {
  const ConstantLatency lat(5.0);
  MultiGroupForwarder fwd(layer, lat, cfg);
  const MultiGroupStats stats = fwd.run(traffic, script);
  for (const GroupRunStats& g : stats.groups) {
    EXPECT_EQ(g.duplicate_deliveries, 0u) << label << " group " << g.group;
  }
  if (out != nullptr) *out = stats;
  return std::string(label) + render(stats);
}

/// A crash of one interior relay of group 1 mid-stream: every group
/// holding the victim prunes both sides of its edges after a detection
/// delay, and each orphan re-hangs under the victim's parent, which then
/// backfills the orphan's delivery gap.
FailoverScript hand_script(const SessionLayer& layer,
                           const std::vector<GroupTraffic>& traffic) {
  const session::GroupTree& g1 = *layer.group(1);
  Id victim = 0;
  std::size_t most = 0;
  for (Id m : g1.sorted_members()) {
    if (m == g1.source()) continue;
    const std::size_t kids = g1.member(m).children.size();
    if (kids > most) {
      victim = m;
      most = kids;
    }
  }
  EXPECT_GT(most, 0u);
  FailoverScript script;
  script.crashes.push_back({120.0, victim});
  for (const GroupTraffic& t : traffic) {
    const session::GroupTree& tree = *layer.group(t.group);
    if (!tree.contains(victim) || tree.source() == victim) continue;
    const session::GroupTree::Member& mem = tree.member(victim);
    script.prunes.push_back({160.0, t.group, mem.parent, victim});
    double at = 170.0;
    for (Id child : mem.children) {
      script.prunes.push_back({at, t.group, victim, child});
      script.reattaches.push_back({at + 250.0, t.group, child, mem.parent});
      at += 60.0;  // staggered: later orphans miss older packets
    }
  }
  return script;
}

std::string session_cases() {
  const Session s = make_session();
  const std::vector<GroupTraffic> traffic = session_traffic();
  std::string out;
  MultiGroupStats stats;
  for (SchedMode mode : {SchedMode::kShared, SchedMode::kLedgerShares}) {
    MultiGroupConfig cfg{mode};
    cfg.admission_high_ms = 40.0;
    cfg.admission_low_ms = 10.0;
    out += session_case(mode == SchedMode::kShared ? "shared-admission"
                                                   : "ledger-admission",
                        *s.layer, cfg, traffic, {}, &stats);
    std::uint64_t pauses = 0;
    for (const GroupRunStats& g : stats.groups) pauses += g.admission_pauses;
    EXPECT_GT(pauses, 0u);
    out += session_case(mode == SchedMode::kShared ? "shared" : "ledger",
                        *s.layer, MultiGroupConfig{mode}, traffic, {});
  }

  const FailoverScript script = hand_script(*s.layer, traffic);
  EXPECT_FALSE(script.reattaches.empty());
  for (double deadline : {0.0, 600.0}) {
    MultiGroupConfig cfg{SchedMode::kShared};
    cfg.repair_deadline_ms = deadline;
    const char* label =
        deadline > 0 ? "shared-failover-deadline" : "shared-failover";
    out += session_case(label, *s.layer, cfg, traffic, script, &stats);
    std::uint64_t repaired = 0, repair_zombies = 0, reattaches = 0;
    for (const GroupRunStats& g : stats.groups) {
      repaired += g.repaired_copies;
      repair_zombies += g.repair_zombies;
      reattaches += g.reattaches;
    }
    EXPECT_GT(reattaches, 0u) << label;
    EXPECT_GT(repaired, 0u) << label;
    if (deadline > 0) {
      EXPECT_GT(repair_zombies, 0u) << label;
    } else {
      EXPECT_EQ(repair_zombies, 0u) << label;
    }
  }
  return out;
}

/// The population both one-tree goldens build their trees from.
FrozenDirectory tree_directory() {
  workload::PopulationSpec spec;
  spec.n = kTreeNodes;
  spec.ring_bits = 16;
  spec.seed = 23;
  return workload::bandwidth_derived_population(spec, 100.0, 4).freeze();
}

void expect_golden(const std::string& name, const std::string& text) {
  const std::string path = golden_path(name);
  if (std::getenv("CAM_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    FAIL() << "regenerated " << path << " (" << text.size() << " bytes)";
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden " << path;
  EXPECT_EQ(text, want) << "forwarder schedules diverged from " << path;
}

TEST(DataplaneGolden, ForwarderSchedulesMatchGolden) {
  const FrozenDirectory dir = tree_directory();
  std::string text;
  for (const char* key : {"camchord", "camkoorde"}) {
    text += tree_cases(key, dir);
  }
  text += session_cases();
  expect_golden("dataplane_forwarders.txt", text);
}

TEST(DataplaneGolden, DepthReportsOverEdgeLatenciesMatchGolden) {
  const FrozenDirectory dir = tree_directory();
  std::string text;
  for (const char* key : {"camchord", "camkoorde"}) {
    text += edge_latency_cases(key, dir);
  }
  expect_golden("dataplane_depth_edges.txt", text);
}

}  // namespace
}  // namespace cam
