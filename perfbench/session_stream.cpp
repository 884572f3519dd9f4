// session_stream — the many-group production path.
//
// Set-up builds kInputs seeded inputs, each an n = 2,000 population and a
// workload script expanded against it: 500 zipf-sized groups, diurnal
// churn and two regional failure bursts of 50 nodes each. The sizes are
// the paper's n = 20,000 scaled down tenfold so that a repetition's
// working set stays in a core's own cache: at n = 20,000 the same code
// ran in shared cache, and other guests on the host moved its
// throughput by 40 % from run to run.
//
// Repetition i takes input i % kInputs, applies its script call by call
// to a fresh SessionLayer (camchord placement, standby + park failover),
// then streams every group with a receiver through MultiGroupForwarder
// in kLedgerShares mode. Session placement and the multi-group forwarder
// do nearly all the work here and none elsewhere; churn (writes to trees
// and ledger) and streaming (reads of them) are timed apart, so a gain
// for one that costs the other shows. goodput_kbps and p99_latency_ms
// come from one more repetition on the reference input.
#include <optional>

#include "session/multi_forwarder.h"
#include "session/session.h"
#include "sim/latency.h"
#include "strategy/strategy.h"
#include "util/rng.h"
#include "workload/population.h"
#include "workload/session_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cam;

constexpr std::size_t kNodes = 2'000;
constexpr std::uint32_t kGroups = 500;
constexpr std::uint32_t kBurst = 50;  // nodes per regional failure
constexpr std::uint32_t kPackets = 8;  // per streamed group
constexpr double kLinkMs = 10.0;

struct Input {
  FrozenDirectory dir;
  std::vector<workload::SessionEvent> script;
};

struct Setup {
  std::vector<Input> inputs;
};

Input build_input(std::uint64_t seed, Tracer& tr) {
  workload::PopulationSpec spec;
  spec.n = kNodes;
  spec.ring_bits = 19;
  spec.seed = seed;
  std::optional<FrozenDirectory> dir;
  {
    Scope s(tr, "workload.population");
    dir.emplace(workload::uniform_capacity_population(spec, 4, 10).freeze());
  }
  Rng rng(seed ^ 0x5e55'1011ULL);
  const Id center_a = rng.next_below(dir->ring().size());
  const Id center_b = rng.next_below(dir->ring().size());
  workload::WorkloadPlan plan;
  plan.groups(kGroups, 1.0, 2, 64)
      .diurnal(0, 1000, 500, 0.5, 0.4, 0.3)
      .region_fail(400, center_a, 0.02, kBurst)
      .region_fail(800, center_b, 0.02, kBurst);
  std::vector<workload::SessionEvent> script;
  {
    Scope s(tr, "workload.generate");
    script = workload::generate_events(plan, *dir, seed);
  }
  return Input{std::move(*dir), std::move(script)};
}

std::unique_ptr<Setup> build(std::uint64_t seed, Tracer& tr) {
  auto st = std::make_unique<Setup>();
  for (std::size_t k = 0; k < kInputs; ++k) {
    st->inputs.push_back(build_input(input_seed(seed, k), tr));
  }
  return st;
}

/// Per-call latencies (us) by operation, recorded in the traced pass.
struct CallTimes {
  std::vector<double> join, leave, fail;
};

/// What one repetition produced. The deterministic fields must repeat
/// exactly from repetition to repetition and from untraced to traced.
struct RepOut {
  double apply_s = 0;
  double stream_s = 0;  // forwarder build + run
  std::uint64_t events = 0;
  std::uint64_t joins = 0, joins_ok = 0, joins_rejected = 0, hops = 0;
  session::SessionCounters counters;
  std::size_t groups_streamed = 0;
  std::uint64_t expected = 0, delivered = 0;  // delivered: checked groups only
  double goodput_kbps = 0, p99_ms = 0, completion_ms = 0, max_backlog_ms = 0;
  double group_sim_s = 0;  // summed over streamed groups
  std::uint64_t fwd_allocs = 0;
  bool same_as(const RepOut& o) const {
    return joins_ok == o.joins_ok && joins_rejected == o.joins_rejected &&
           hops == o.hops && counters.reparented == o.counters.reparented &&
           counters.dropped_members == o.counters.dropped_members &&
           counters.parked_subtrees == o.counters.parked_subtrees &&
           groups_streamed == o.groups_streamed && expected == o.expected &&
           delivered == o.delivered && goodput_kbps == o.goodput_kbps &&
           p99_ms == o.p99_ms && completion_ms == o.completion_ms &&
           group_sim_s == o.group_sim_s;
  }
};

RepOut rep(const Input& st, Tracer& tr, CallTimes* calls, Report& report) {
  RepOut out;
  session::SessionLayer layer(st.dir, strategy::registry().make("camchord"));
  layer.set_failover_policy(session::FailoverPolicy{true, true});

  {
    Scope s(tr, "session.apply");
    const double t0 = now_s();
    for (const workload::SessionEvent& e : st.script) {
      const std::uint64_t c0 = calls != nullptr ? now_ns() : 0;
      std::vector<double>* sink = nullptr;
      switch (e.op) {
        case workload::SessionOp::kCreate:
          layer.create_group(e.group, e.node);
          break;
        case workload::SessionOp::kJoin: {
          const session::JoinResult r = layer.join(e.group, e.node);
          ++out.joins;
          out.hops += r.lookup_hops;
          if (r.outcome == session::JoinOutcome::kJoined) ++out.joins_ok;
          if (r.outcome == session::JoinOutcome::kNoCapacity) {
            ++out.joins_rejected;
          }
          if (calls != nullptr) sink = &calls->join;
          break;
        }
        case workload::SessionOp::kLeave:
          layer.leave(e.group, e.node);
          if (calls != nullptr) sink = &calls->leave;
          break;
        case workload::SessionOp::kFail:
          layer.fail_node(e.node);
          if (calls != nullptr) sink = &calls->fail;
          break;
      }
      if (sink != nullptr) {
        sink->push_back(static_cast<double>(now_ns() - c0) * 1e-3);
      }
    }
    out.apply_s = now_s() - t0;
  }
  out.events = st.script.size();
  out.counters = layer.counters();
  const std::vector<std::string> defects = layer.check();
  if (!defects.empty()) {
    report.fail("session_stream: SessionLayer::check() reported " +
                std::to_string(defects.size()) + " defects, first: " +
                defects.front());
  }

  std::vector<session::GroupTraffic> traffic;
  for (session::GroupId g : layer.group_ids()) {
    if (layer.group(g)->size() < 2) continue;
    session::GroupTraffic t;
    t.group = g;
    t.num_packets = kPackets;
    traffic.push_back(t);
  }
  out.groups_streamed = traffic.size();

  const ConstantLatency lat(kLinkMs);
  session::MultiGroupConfig cfg;
  cfg.mode = session::SchedMode::kLedgerShares;
  session::MultiGroupStats stats;
  {
    Scope s(tr, "session.forward");
    const std::uint64_t a0 = allocs();
    const double t0 = now_s();
    std::optional<session::MultiGroupForwarder> fwd;
    {
      Scope b(tr, "session.fwd_build");
      fwd.emplace(layer, lat, cfg);
    }
    {
      Scope r(tr, "session.fwd_run");
      stats = fwd->run(traffic);
    }
    out.stream_s = now_s() - t0;
    out.fwd_allocs = allocs() - a0;
  }

  for (const session::GroupRunStats& g : stats.groups) {
    out.expected += g.copies_expected;
    if (g.duplicate_deliveries != 0) {
      report.fail("session_stream: group " + std::to_string(g.group) +
                  " saw " + std::to_string(g.duplicate_deliveries) +
                  " duplicate deliveries");
      continue;  // a failed check counts as undelivered
    }
    out.delivered += g.copies_delivered;
    out.group_sim_s += g.session.completion_ms * 1e-3;
  }
  if (!defects.empty()) out.delivered = 0;
  out.goodput_kbps = stats.aggregate_goodput_kbps;
  out.p99_ms = stats.p99_latency_ms;
  out.completion_ms = stats.completion_ms;
  out.max_backlog_ms = stats.max_backlog_ms;
  report.attempted += out.events + out.groups_streamed;
  return out;
}

/// Repetition i must reproduce the first pass's repetition of its input.
void check_replay(const std::vector<RepOut>& reps,
                  const std::vector<RepOut>& first, Report& report) {
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (!reps[i].same_as(first[i % kInputs])) {
      report.fail("session_stream: repetition " + std::to_string(i) +
                  " did not reproduce the outputs of its input");
    }
  }
}

}  // namespace

Report run_session_stream(const Options& opt, Tracer& tr) {
  Report report;
  std::unique_ptr<Setup> st;
  std::vector<RepOut> reps;

  if (!opt.trace) {
    const auto make = [&] { return build(opt.seed, tr); };
    const double first_setup = setup_batch(st, make);
    repeat_for(opt.seconds, kInputs, [&](int i) {
      reps.push_back(rep(st->inputs[static_cast<std::size_t>(i) % kInputs],
                         tr, nullptr, report));
    });
    const double peak_rss = peak_rss_mb();
    check_replay(reps, reps, report);
    // Churn and streaming are timed apart, each over one pass of the
    // inputs at each input's fastest repetition.
    std::vector<double> apply_s, stream_s;
    std::uint64_t delivered = 0, expected = 0;
    for (const RepOut& r : reps) {
      apply_s.push_back(r.apply_s);
      stream_s.push_back(r.stream_s);
      delivered += r.delivered;
      expected += r.expected;
    }
    double events = 0, copies = 0, group_sim_s = 0;
    for (std::size_t k = 0; k < kInputs; ++k) {
      events += static_cast<double>(reps[k].events);
      copies += static_cast<double>(reps[k].delivered);
      group_sim_s += reps[k].group_sim_s;
    }
    report.add("setup_s", reference_s(finish_setups(first_setup, st, make)));
    const RepOut ref =
        rep(build_input(kReferenceSeed, tr), tr, nullptr, report);
    const double stream_pass_s = reference_s(fastest_pass(stream_s, kInputs));
    report.add("copies_per_s", copies / stream_pass_s);
    report.add("ops_per_s", events / reference_s(fastest_pass(apply_s, kInputs)));
    report.add("sim_s_per_s", group_sim_s / stream_pass_s);
    report.add("peak_rss_mb", peak_rss);
    report.add("delivery_ratio",
               expected == 0 ? 0 : static_cast<double>(delivered) /
                                       static_cast<double>(expected));
    report.add("goodput_kbps", ref.goodput_kbps);
    report.add("p99_latency_ms", ref.p99_ms);
    return report;
  }

  // Traced run: one traced set-up, then repetitions alternating between
  // untraced and traced (spans, per-call timing, allocation counting).
  tr.set_on(true);
  st = build(opt.seed, tr);
  const double rss_after_setup = rss_mb();
  std::vector<double> plain_s, traced_s;
  std::vector<RepOut> traced;
  CallTimes calls;
  const int n = alternate_traced(tr, opt.seconds, kInputs, [&](int i, bool on) {
    std::vector<RepOut>& out = on ? traced : reps;
    out.push_back(rep(st->inputs[static_cast<std::size_t>(i) % kInputs], tr,
                      on ? &calls : nullptr, report));
    (on ? traced_s : plain_s).push_back(out.back().apply_s + out.back().stream_s);
  });
  check_replay(reps, reps, report);
  check_replay(traced, reps, report);

  const RepOut& r0 = traced.front();
  std::uint64_t copies = 0, fwd_allocs = 0;
  for (const RepOut& r : traced) {
    copies += r.delivered;
    fwd_allocs += r.fwd_allocs;
  }
  const double reps_d = static_cast<double>(n);
  report.add("workload.population_s", tr.total_s("workload.population"));
  report.add("workload.generate_s", tr.total_s("workload.generate"));
  report.add("session.join_us.p50", median(calls.join));
  report.add("session.join_us.p99", quantile(calls.join, 0.99));
  report.add("session.join_us.n", static_cast<double>(calls.join.size()));
  report.add("session.fail_us.p50", median(calls.fail));
  report.add("session.fail_us.p99", quantile(calls.fail, 0.99));
  report.add("session.fail_us.n", static_cast<double>(calls.fail.size()));
  report.add("session.leave_us.p99", quantile(calls.leave, 0.99));
  report.add("session.leave_us.n", static_cast<double>(calls.leave.size()));
  report.add("session.lookup_hops.mean",
             r0.joins == 0 ? 0 : static_cast<double>(r0.hops) /
                                     static_cast<double>(r0.joins));
  report.add("session.join_accept_ratio",
             r0.joins_ok + r0.joins_rejected == 0
                 ? 0
                 : static_cast<double>(r0.joins_ok) /
                       static_cast<double>(r0.joins_ok + r0.joins_rejected));
  const std::uint64_t reattached =
      r0.counters.reattach_standby + r0.counters.reattach_full;
  report.add("session.standby_share",
             reattached == 0 ? 0 : static_cast<double>(r0.counters.reattach_standby) /
                                       static_cast<double>(reattached));
  report.add("session.fwd_build_s", tr.total_s("session.fwd_build") / reps_d);
  report.add("session.fwd_ns_per_copy",
             tr.self_s("session.fwd_run") * 1e9 / static_cast<double>(copies));
  report.add("session.fwd_allocs_per_copy",
             static_cast<double>(fwd_allocs) / static_cast<double>(copies));
  report.add("session.max_backlog_ms", r0.max_backlog_ms);
  report.add("rss.after_setup_mb", rss_after_setup);
  report.add("trace.overhead_pct",
             100.0 * (median(traced_s) - median(plain_s)) / median(plain_s));
  return report;
}

}  // namespace perfbench
