#include "fault/session_chaos.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "runtime/sweep_pool.h"
#include "session/failover.h"
#include "strategy/strategy.h"
#include "telemetry/trace.h"
#include "util/num_text.h"
#include "workload/population.h"

namespace cam::fault {

namespace {

/// Invariant sweep cadence: full SessionLayer::check() every this many
/// applied events (and always once at the end).
constexpr std::size_t kCheckEvery = 32;
/// Heartbeat schedule jitter, as a fraction of the period.
constexpr double kHbJitter = 0.5;
/// Reattach cost model: a standby re-hang costs one control RTT; full
/// placement and re-admission cost (lookup_hops + 1) hop RTTs.
constexpr double kStandbyRttMs = 2.0;
constexpr double kHopRttMs = 2.0;

SimTime reattach_cost_ms(const session::ReattachRecord& r) {
  return r.how == session::ReattachRecord::How::kStandby
             ? kStandbyRttMs
             : static_cast<double>(r.lookup_hops + 1) * kHopRttMs;
}

const strategy::MulticastStrategy& parse_system(const std::string& s) {
  // Session placement needs lookup routing; anything but the CAMs falls
  // back to CAM-Chord (the historical default for unknown names).
  return strategy::registry().make(s == "camkoorde" ? "camkoorde"
                                                    : "camchord");
}

/// Wraps SessionLayer::check() lines into Violations, tagged with how
/// far into the script the sweep ran.
void sweep_invariants(const session::SessionLayer& layer,
                      std::size_t applied,
                      std::vector<Violation>& out) {
  for (const std::string& line : layer.check()) {
    out.push_back(Violation{"session.consistency", 0,
                            "after event " + std::to_string(applied) +
                                ": " + line});
  }
}

// ---------------------------------------------------------------------
// Detection-mode replay (ISSUE 8). Crashes in the script are not applied
// when they "happen": the victim keeps its tree positions until the
// first live watcher's suspicion deadline — computed by replaying the
// deterministic DepthFeed heartbeat timetable (HeartbeatSchedule) into
// the same FailureDetector the live stack drives — and the layer's
// failover surgery runs at that announce instant.
class DetectReplay {
 public:
  DetectReplay(const SessionChaosConfig& cfg, session::SessionLayer& layer,
               SessionChaosReport& rep, telemetry::Tracer& tracer,
               telemetry::Registry& reg)
      : layer_(layer), rep_(rep), tracer_(tracer), reg_(reg),
        det_(cfg.hb_period_ms),
        sched_(cfg.seed, cfg.hb_period_ms, kHbJitter) {}

  void run(const std::vector<workload::SessionEvent>& events) {
    for (const workload::SessionEvent& e : events) {
      if (e.op == workload::SessionOp::kFail) {
        crash_at_.try_emplace(e.node, e.at_ms);
      }
    }
    reconcile_edges();
    std::size_t idx = 0;
    while (idx < events.size() || !pending_.empty()) {
      const bool take_announce =
          !pending_.empty() &&
          (idx >= events.size() ||
           pending_.front().at_ms <= events[idx].at_ms);
      if (take_announce) {
        const Announce a = pending_.front();
        pending_.erase(pending_.begin());
        apply_announce(a);
      } else {
        apply_event(events[idx++]);
      }
    }
    sweep_invariants(layer_, applied_, rep_.violations);
    if (last_ms_ > 0) rep_.degraded_frac = degraded_ms_ / last_ms_;
  }

 private:
  struct Announce {
    SimTime at_ms = 0;
    SimTime crash_ms = 0;
    Id victim = 0;
    Id watcher = 0;
    bool detected = false;
  };

  /// Accrues degraded time up to `t` with the CURRENT parked state,
  /// then moves the replay clock.
  void advance_clock(SimTime t) {
    if (t < last_ms_) t = last_ms_;  // announce fallbacks never rewind
    if (layer_.total_parked_members() > 0) degraded_ms_ += t - last_ms_;
    last_ms_ = t;
  }

  void note_parked() {
    rep_.peak_parked =
        std::max(rep_.peak_parked, layer_.total_parked_members());
  }

  /// Rebuilds the watch-edge set from the live trees: every attached
  /// tree edge is watched from both ends (child heartbeats the parent
  /// via DepthFeed; data/acks flow back), deduplicated across groups.
  /// New edges remember their start time so heartbeat replay begins at
  /// the instant the relationship formed.
  void reconcile_edges() {
    std::set<std::pair<Id, Id>> want;
    for (session::GroupId g : layer_.group_ids()) {
      const session::GroupTree* tree = layer_.group(g);
      for (Id m : tree->sorted_members()) {
        if (m == tree->source()) continue;
        const Id p = tree->member(m).parent;
        want.emplace(p, m);
        want.emplace(m, p);
      }
    }
    for (auto it = edge_since_.begin(); it != edge_since_.end();) {
      if (!want.contains(it->first)) {
        det_.untrack(it->first.first, it->first.second);
        it = edge_since_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& e : want) edge_since_.try_emplace(e, last_ms_);
  }

  void trace(telemetry::EventType type, SimTime at, Id node, Id peer,
             std::uint64_t a, std::uint64_t b) {
    if (tracer_.wants(type)) {
      tracer_.record(telemetry::TraceEvent{at, type, node, peer, a, b});
    }
  }

  /// Drains the layer's failover log, pricing each decision with the
  /// control-plane cost model and feeding histograms / counters /
  /// traces. `now` is when the surgery ran; `crash_ms` anchors recovery
  /// latency (equal to `now` for leave-triggered re-admissions, whose
  /// latency is anchored at their own park time instead).
  void harvest(SimTime now, SimTime crash_ms) {
    using How = session::ReattachRecord::How;
    for (const session::ReattachRecord& r : layer_.take_failover_log()) {
      switch (r.how) {
        case How::kStandby:
        case How::kPlacement: {
          const bool standby = r.how == How::kStandby;
          const SimTime done = now + reattach_cost_ms(r);
          reg_.counter(standby ? "session.failover.reattach.standby"
                               : "session.failover.reattach.full")
              .add();
          reg_.histogram("session.failover.reattach_ms")
              .record(done - crash_ms);
          trace(telemetry::EventType::kFailoverReattach, done, r.child,
                r.parent, r.group, standby ? 1 : 0);
          break;
        }
        case How::kParked:
          park_since_.insert_or_assign({r.group, r.child}, crash_ms);
          reg_.counter("session.failover.park").add();
          trace(telemetry::EventType::kFailoverPark, now, r.child, 0,
                r.group, r.members);
          break;
        case How::kDropped:
          reg_.counter("session.failover.drop").add();
          break;
        case How::kReadmitted: {
          const SimTime done = now + reattach_cost_ms(r);
          reg_.counter("session.failover.readmit").add();
          if (auto it = park_since_.find({r.group, r.child});
              it != park_since_.end()) {
            reg_.histogram("session.failover.reattach_ms")
                .record(done - it->second);
            park_since_.erase(it);
          }
          trace(telemetry::EventType::kFailoverReadmit, done, r.child,
                r.parent, r.group, r.members);
          break;
        }
      }
    }
  }

  void after_op() {
    ++applied_;
    note_parked();
    reconcile_edges();
    if (applied_ % kCheckEvery == 0) {
      sweep_invariants(layer_, applied_, rep_.violations);
    }
  }

  /// A script crash: replay the victim's watcher edges' heartbeats up to
  /// the crash instant and queue the failover announce at the earliest
  /// suspicion deadline among watchers that outlive it.
  void on_crash(const workload::SessionEvent& e) {
    ++rep_.crash_victims;
    SimTime best = 0;
    Id best_watcher = 0;
    bool found = false;
    for (const auto& [edge, since] : edge_since_) {
      if (edge.second != e.node) continue;
      const Id w = edge.first;
      det_.track(w, e.node, since);
      for (std::uint64_t i = 0;; ++i) {
        const SimTime at = since + sched_.arrival_offset(w, e.node, i);
        if (at > e.at_ms) break;
        det_.heartbeat(w, e.node, at);
      }
      const SimTime deadline =
          std::max(det_.suspect_deadline(w, e.node), e.at_ms);
      // A watcher that dies before its own windows close never reports.
      if (auto it = crash_at_.find(w);
          it != crash_at_.end() && it->second <= deadline) {
        continue;
      }
      if (!found || deadline < best ||
          (deadline == best && w < best_watcher)) {
        best = deadline;
        best_watcher = w;
        found = true;
      }
    }
    // Nobody watches (not a member, or the whole neighborhood died
    // together): fall back to the oracle instant so state stays sane.
    Announce a;
    a.at_ms = found ? best : e.at_ms;
    a.crash_ms = e.at_ms;
    a.victim = e.node;
    a.watcher = best_watcher;
    a.detected = found;
    const auto pos = std::upper_bound(
        pending_.begin(), pending_.end(), a,
        [](const Announce& x, const Announce& y) {
          return x.at_ms != y.at_ms ? x.at_ms < y.at_ms
                                    : x.victim < y.victim;
        });
    pending_.insert(pos, a);
  }

  void apply_announce(const Announce& a) {
    advance_clock(a.at_ms);
    if (a.detected) {
      ++rep_.detected_crashes;
      reg_.counter("session.failover.detect").add();
      reg_.histogram("session.failover.detect_ms")
          .record(a.at_ms - a.crash_ms);
      trace(telemetry::EventType::kFailoverDetect, a.at_ms, a.watcher,
            a.victim, static_cast<std::uint64_t>(a.at_ms),
            static_cast<std::uint64_t>(a.crash_ms));
    }
    layer_.fail_node(a.victim);
    ++rep_.apply.fails;
    harvest(a.at_ms, a.crash_ms);
    after_op();
  }

  void apply_event(const workload::SessionEvent& e) {
    advance_clock(e.at_ms);
    if (e.op == workload::SessionOp::kFail) {
      on_crash(e);
      return;  // surgery (and after_op) runs at the announce instant
    }
    session::apply_event(layer_, e, rep_.apply);
    // A leave can free capacity and re-admit parked subtrees.
    harvest(e.at_ms, e.at_ms);
    after_op();
  }

  session::SessionLayer& layer_;
  SessionChaosReport& rep_;
  telemetry::Tracer& tracer_;
  telemetry::Registry& reg_;
  session::FailureDetector det_;
  session::HeartbeatSchedule sched_;
  std::map<std::pair<Id, Id>, SimTime> edge_since_;  // (watcher, peer)
  std::map<Id, SimTime> crash_at_;    // script crash time per victim
  std::vector<Announce> pending_;     // sorted (at_ms, victim)
  std::map<std::pair<session::GroupId, Id>, SimTime> park_since_;
  std::size_t applied_ = 0;
  SimTime last_ms_ = 0;
  double degraded_ms_ = 0;
};

/// Picks the mid-stream crash victim: the deepest interior (has
/// children) non-source member of the largest streamed group that is not
/// the source of any streamed group; ties break to the smaller id.
/// Returns false when every streamed tree is a pure star.
bool pick_stream_victim(const session::SessionLayer& layer,
                        const std::vector<session::GroupTraffic>& traffic,
                        Id& victim_out) {
  const session::GroupTree* largest = nullptr;
  for (const session::GroupTraffic& t : traffic) {
    const session::GroupTree* g = layer.group(t.group);
    if (largest == nullptr || g->size() > largest->size()) largest = g;
  }
  if (largest == nullptr) return false;
  std::set<Id> sources;
  for (const session::GroupTraffic& t : traffic) {
    sources.insert(layer.group(t.group)->source());
  }
  bool found = false;
  int best_depth = 0;
  Id best = 0;
  for (Id m : largest->sorted_members()) {
    const session::GroupTree::Member& mem = largest->member(m);
    if (mem.depth < 1 || mem.children.empty()) continue;
    if (sources.contains(m)) continue;
    if (!found || mem.depth > best_depth) {
      best = m;
      best_depth = mem.depth;
      found = true;
    }
  }
  if (found) victim_out = best;
  return found;
}

}  // namespace

SessionChaosReport run_session_chaos(const SessionChaosConfig& cfg,
                                     const workload::WorkloadPlan& plan) {
  SessionChaosReport rep;
  rep.cfg = cfg;
  rep.plan_text = plan.to_string();

  workload::PopulationSpec spec;
  spec.n = cfg.n;
  spec.ring_bits = cfg.bits;
  spec.bw_lo_kbps = cfg.bw_lo_kbps;
  spec.bw_hi_kbps = cfg.bw_hi_kbps;
  spec.seed = cfg.seed;
  const NodeDirectory ndir =
      workload::uniform_capacity_population(spec, cfg.cap_lo, cfg.cap_hi);
  const FrozenDirectory dir = ndir.freeze();

  session::SessionLayer layer(dir, parse_system(cfg.system));
  if (cfg.detect) {
    layer.set_failover_policy(
        session::FailoverPolicy{cfg.standby, cfg.park});
  }
  telemetry::Tracer tracer(1 << 12);
  telemetry::Registry registry;

  const std::vector<workload::SessionEvent> events =
      workload::generate_events(plan, dir, cfg.seed);
  rep.events = events.size();

  if (cfg.detect) {
    // Detection-driven replay: crashes surface at suspicion deadlines.
    DetectReplay(cfg, layer, rep, tracer, registry).run(events);
  } else {
    // Sweep the invariants every kCheckEvery events and at the end:
    // membership chaos is only chaos if the ledger/tree cross-checks
    // hold WHILE it happens, not just after.
    for (std::size_t i = 0; i < events.size(); ++i) {
      session::apply_event(layer, events[i], rep.apply);
      const std::size_t applied = i + 1;
      if (applied % kCheckEvery == 0 || applied == events.size()) {
        sweep_invariants(layer, applied, rep.violations);
      }
    }
    if (events.empty()) sweep_invariants(layer, 0, rep.violations);
  }

  rep.counters = layer.counters();
  rep.groups = layer.group_count();
  for (session::GroupId g : layer.group_ids()) {
    rep.memberships += layer.group(g)->size();
  }
  rep.max_utilization = layer.ledger().max_utilization();

  // Stream the first eligible groups through the shared dataplane and
  // hold every delivery to cross-group exactly-once + completeness.
  std::vector<session::GroupTraffic> traffic;
  for (session::GroupId g : layer.group_ids()) {
    if (traffic.size() >= cfg.stream_groups) break;
    if (layer.group(g)->size() < 2) continue;
    session::GroupTraffic t;
    t.group = g;
    t.num_packets = cfg.stream_packets;
    traffic.push_back(t);
  }
  if (!traffic.empty()) {
    const ConstantLatency latency(1.0);
    const session::MultiGroupConfig mcfg{cfg.mode};
    // The forwarder snapshots the trees NOW — before any mid-stream
    // crash surgery below — so it streams the pre-crash topology and
    // learns about the failure only through the FailoverScript, exactly
    // like a data plane whose control plane lags detection.
    session::MultiGroupForwarder fwd(layer, latency, mcfg);

    session::FailoverScript script;
    if (cfg.detect && cfg.stream_crash &&
        pick_stream_victim(layer, traffic, rep.stream_victim)) {
      rep.stream_crashed = true;
      const Id victim = rep.stream_victim;
      const SimTime t_crash = kStreamCrashMs;
      script.crashes.push_back({t_crash, victim});

      // Per-watcher detection spread from the heartbeat timetable: each
      // watcher's strike windows close after
      //   strikes * max(floor, period * (1 + jitter * (u - 0.5)))
      // with u the edge's schedule hash — deterministic, no RNG state.
      const session::HeartbeatSchedule sched(cfg.seed, cfg.hb_period_ms,
                                             kHbJitter);
      const auto detect_delay = [&](Id w) {
        const double u =
            sched.hash_uniform(w, victim, 0x9E3779B97F4A7C15ull);
        const double window =
            std::max(session::kDetectorFloorMs,
                     cfg.hb_period_ms * (1 + kHbJitter * (u - 0.5)));
        return static_cast<double>(session::kDetectorStrikes) * window;
      };
      SimTime announce = t_crash;
      Id first_watcher = 0;
      bool watched = false;
      for (const session::GroupTraffic& t : traffic) {
        const session::GroupTree* tree = layer.group(t.group);
        if (!tree->contains(victim)) continue;
        const session::GroupTree::Member& mem = tree->member(victim);
        std::vector<Id> watchers = mem.children;
        watchers.push_back(mem.parent);
        for (Id w : watchers) {
          const SimTime at = t_crash + detect_delay(w);
          script.prunes.push_back(
              {at, t.group,
               w == mem.parent ? mem.parent : victim,
               w == mem.parent ? victim : w});
          if (!watched || at < announce ||
              (at == announce && w < first_watcher)) {
            announce = at;
            first_watcher = w;
            watched = true;
          }
        }
      }
      rep.stream_announce_ms = announce;
      if (tracer.wants(telemetry::EventType::kFailoverDetect)) {
        tracer.record(telemetry::TraceEvent{
            announce, telemetry::EventType::kFailoverDetect, first_watcher,
            victim, static_cast<std::uint64_t>(announce),
            static_cast<std::uint64_t>(t_crash)});
      }
      registry.counter("session.failover.detect").add();

      // Control-plane surgery at announce time: the layer re-hangs the
      // orphans and tells us where, pricing each reattach for the data
      // plane. Parked subtrees stay detached for the rest of the run.
      std::set<session::GroupId> streamed_ids;
      for (const session::GroupTraffic& t : traffic) {
        streamed_ids.insert(t.group);
      }
      layer.fail_node(victim);
      using How = session::ReattachRecord::How;
      for (const session::ReattachRecord& r : layer.take_failover_log()) {
        if (r.how != How::kStandby && r.how != How::kPlacement) continue;
        const SimTime done = announce + reattach_cost_ms(r);
        // Surgery reattaches are crash recoveries like any other: they
        // feed the same latency histogram the workload-replay harvest
        // does, so counters and histogram agree on what "a reattach" is.
        registry.histogram("session.failover.reattach_ms")
            .record(done - t_crash);
        if (!streamed_ids.contains(r.group)) continue;
        script.reattaches.push_back({done, r.group, r.child, r.parent});
      }
      // Parked members throttle their sources instead of being dropped.
      for (session::GroupTraffic& t : traffic) {
        t.throttle = layer.throttle(t.group);
      }
      for (const std::string& line : layer.check()) {
        rep.violations.push_back(
            Violation{"session.consistency", 0,
                      "after stream crash: " + line});
      }
      // The surgery is part of the run: refresh the rendered state.
      rep.counters = layer.counters();
      rep.groups = layer.group_count();
      rep.memberships = 0;
      for (session::GroupId g : layer.group_ids()) {
        rep.memberships += layer.group(g)->size();
      }
      rep.max_utilization = layer.ledger().max_utilization();
    }

    const session::MultiGroupStats stats = fwd.run(traffic, script);
    rep.streamed = stats.groups.size();
    for (const session::GroupRunStats& g : stats.groups) {
      rep.copies_delivered += g.copies_delivered;
      rep.copies_expected += g.copies_expected;
      rep.dup_copies += g.duplicate_deliveries;
      rep.stream_reattaches += g.reattaches;
      rep.stream_repaired += g.repaired_copies;
      rep.stream_gap_total += g.gap_packets_total;
      rep.stream_gap_max = std::max(rep.stream_gap_max, g.gap_packets_max);
      rep.stream_zombie_lost += g.zombie_lost_deliveries;
      rep.stream_copies_lost += g.copies_lost;
      rep.stream_suppressed += g.suppressed_relays;
      if (g.duplicate_deliveries != 0) {
        rep.violations.push_back(Violation{
            "session.exactly_once", 0,
            "group " + std::to_string(g.group) + ": " +
                std::to_string(g.duplicate_deliveries) +
                " duplicate deliveries"});
      }
      if (g.copies_delivered != g.copies_expected) {
        rep.violations.push_back(Violation{
            "session.delivery", 0,
            "group " + std::to_string(g.group) + ": delivered " +
                std::to_string(g.copies_delivered) + " of " +
                std::to_string(g.copies_expected)});
      }
    }
  }

  if (cfg.detect) {
    if (const telemetry::Histogram* h =
            registry.find_histogram("session.failover.detect_ms")) {
      rep.detect_latency = *h;
    }
    if (const telemetry::Histogram* h =
            registry.find_histogram("session.failover.reattach_ms")) {
      rep.reattach_latency = *h;
    }
    rep.failover_trace_events =
        tracer.size() + static_cast<std::size_t>(tracer.dropped());
  }

  rep.ok = rep.violations.empty();
  return rep;
}

std::string SessionChaosReport::render() const {
  std::ostringstream os;
  os << "session-chaos system=" << cfg.system << " n=" << cfg.n
     << " bits=" << cfg.bits << " seed=" << cfg.seed
     << " mode=" << (cfg.mode == session::SchedMode::kShared
                         ? "shared"
                         : "ledger-shares");
  if (cfg.detect) {
    os << " detect=1 standby=" << (cfg.standby ? 1 : 0)
       << " park=" << (cfg.park ? 1 : 0)
       << " hb=" << format_g(cfg.hb_period_ms);
  }
  os << "\n";
  os << "plan:\n" << plan_text;
  os << "apply: events=" << events << " creates=" << apply.creates
     << " joins_ok=" << apply.joins_ok
     << " joins_rejected=" << apply.joins_rejected
     << " leaves=" << apply.leaves << " noop_leaves=" << apply.noop_leaves
     << " fails=" << apply.fails << "\n";
  os << "counters: created=" << counters.groups_created
     << " destroyed=" << counters.groups_destroyed
     << " joins_ok=" << counters.joins_ok
     << " rejected=" << counters.joins_rejected
     << " leaves=" << counters.leaves
     << " failures=" << counters.failures
     << " reparented=" << counters.reparented
     << " dropped=" << counters.dropped_members << "\n";
  os << "state: groups=" << groups << " memberships=" << memberships
     << " max_util=" << format_g(max_utilization) << "\n";
  if (cfg.detect) {
    os << "failover: crashes=" << crash_victims
       << " detected=" << detected_crashes
       << " standby=" << counters.reattach_standby
       << " full=" << counters.reattach_full
       << " parked=" << counters.parked_subtrees
       << " readmitted=" << counters.readmitted_subtrees
       << " detect_p50=" << format_g(detect_latency.quantile(0.5))
       << " detect_max=" << format_g(detect_latency.max())
       << " reattach_p50=" << format_g(reattach_latency.quantile(0.5))
       << " reattach_max=" << format_g(reattach_latency.max()) << "\n";
    os << "degraded: frac=" << format_g(degraded_frac)
       << " peak_parked=" << peak_parked
       << " trace_events=" << failover_trace_events << "\n";
  }
  os << "stream: groups=" << streamed << " delivered=" << copies_delivered
     << "/" << copies_expected << " dups=" << dup_copies << "\n";
  if (cfg.detect && cfg.stream_crash) {
    os << "stream-failover: ";
    if (stream_crashed) {
      os << "victim=" << stream_victim
         << " announce=" << format_g(stream_announce_ms)
         << " reattaches=" << stream_reattaches
         << " repaired=" << stream_repaired
         << " gaps=" << stream_gap_total << "/" << stream_gap_max
         << " zombie_lost=" << stream_zombie_lost
         << " lost=" << stream_copies_lost
         << " suppressed=" << stream_suppressed;
    } else {
      os << "victim=none";
    }
    os << "\n";
  }
  os << "violations=" << violations.size() << "\n";
  os << render_violations(violations);
  os << "ok=" << (ok ? "true" : "false") << "\n";
  return os.str();
}

std::vector<SessionChaosReport> run_session_chaos_cells(
    const std::vector<SessionChaosCell>& cells, std::size_t jobs) {
  return runtime::map_ordered(cells.size(), jobs, [&](std::size_t i) {
    return run_session_chaos(cells[i].cfg, cells[i].plan);
  });
}

workload::WorkloadPlan default_session_workload() {
  workload::WorkloadPlan plan;
  plan.groups(6, 1.0, 2, 12);
  plan.flash(1, 10.0, 8, 2.0);
  plan.diurnal(20.0, 220.0, 100.0, 0.5, 0.05, 0.03);
  plan.region_fail(240.0, 0, 0.1, 3);
  return plan;
}

}  // namespace cam::fault
