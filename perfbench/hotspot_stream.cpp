// hotspot_stream — one stream over a CAM-Koorde tree with a hot relay.
//
// Set-up builds a bandwidth-derived population (c_x = B_x / 100 kbps,
// the A12 shape) and, through the strategy registry, the CAM-Koorde
// trees of kTrees seeded sources, each with its busiest relay's uplink
// cut to 0.25x. Repetition i streams a paced source over tree
// i mod kTrees through a fresh BackpressureForwarder with backpressure
// on, its depth reports travelling through proto::DepthFeed over a
// lossless HostBus. This is the only workload where dataplane
// delegation does the work, the only one on the DepthFeed ->
// sim::Simulator bridge, and the one that puts the paper's second
// system on the path. The receiver-side outputs of one tree depend on
// where its hot relay sits, so they are reported as medians over the
// kTrees trees of the reference input rather than from one.
#include <algorithm>
#include <optional>

#include "dataplane/forwarder.h"
#include "proto/depth_feed.h"
#include "proto/host_bus.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "strategy/strategy.h"
#include "util/flat_table.h"
#include "util/rng.h"
#include "workload/population.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cam;

constexpr std::size_t kNodes = 5'000;
constexpr int kTrees = 4;
constexpr double kHotspotFactor = 0.25;
constexpr double kLinkMs = 10.0;

dataplane::TrafficSpec traffic() {
  dataplane::TrafficSpec t;
  t.packet_bytes = 1250;
  t.num_packets = 16;
  // Slow enough that the intact tree carries it without queueing, fast
  // enough that the quartered relay cannot keep up on its own.
  t.source_rate_kbps = 60.0;
  return t;
}

/// One single-shot plane: the forwarder plus the bus its depth reports
/// ride. Members are declared in construction order.
struct Plane {
  Plane(const MulticastTree& tree, const LatencyModel& lat,
        const std::vector<double>& uplinks)
      : net(sim, lat), bus(net), feed(bus), fwd(tree, lat, config()) {
    fwd.set_uplinks(uplinks);
    for (const auto& [child, rec] : tree.entries()) {
      if (child != tree.source()) feed.register_edge(child, rec.parent);
    }
  }
  static dataplane::ForwarderConfig config() {
    dataplane::ForwarderConfig cfg;
    cfg.backpressure = true;
    return cfg;
  }
  Simulator sim;
  Network net;
  proto::HostBus bus;
  proto::DepthFeed feed;
  dataplane::BackpressureForwarder fwd;
};

/// One seeded source's tree and its uplink table.
struct Stream {
  MulticastTree tree;
  std::vector<double> uplinks;  // aligned with the forwarder's node_ids()
};

struct Setup {
  FrozenDirectory dir;
  std::vector<Stream> streams;
  ConstantLatency lat{kLinkMs};
  std::unique_ptr<Plane> plane;  // built in set-up for the first repetition
};

Stream make_stream(const FrozenDirectory& dir, Id source, Tracer& tr) {
  std::optional<MulticastTree> tree;
  {
    Scope s(tr, "strategy.build_tree");
    tree.emplace(strategy::registry().make("camkoorde").build_tree(
        dir, source, strategy::StrategyParams{}));
  }
  // The hotspot: most children among non-source relays, ties to the
  // smallest id (the rule of runtime stream cells).
  FlatMap<Id, std::size_t> children;
  for (const auto& [id, rec] : tree->entries()) {
    if (id != tree->source()) ++children[rec.parent];
  }
  Id hotspot = 0;
  std::size_t most = 0;
  for (const auto& [id, count] : children) {
    if (id == tree->source()) continue;
    if (count > most || (count == most && id < hotspot)) {
      hotspot = id;
      most = count;
    }
  }
  std::vector<Id> ids;
  for (const auto& [id, rec] : tree->entries()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());  // the forwarder's dense order
  std::vector<double> uplinks;
  for (Id id : ids) {
    double kbps = dir.info(id).bandwidth_kbps;
    if (id == hotspot) kbps *= kHotspotFactor;
    uplinks.push_back(kbps);
  }
  return Stream{std::move(*tree), std::move(uplinks)};
}

std::unique_ptr<Setup> build(std::uint64_t seed, Tracer& tr) {
  workload::PopulationSpec spec;
  spec.n = kNodes;
  spec.ring_bits = 19;
  spec.seed = seed;
  std::optional<FrozenDirectory> dir;
  {
    Scope s(tr, "workload.population");
    dir.emplace(
        workload::bandwidth_derived_population(spec, 100.0, 4).freeze());
  }
  Rng rng(seed ^ 0x407'5e07ULL);
  auto st = std::make_unique<Setup>(
      Setup{std::move(*dir), {}, ConstantLatency(kLinkMs), {}});
  for (int i = 0; i < kTrees; ++i) {
    const Id source = st->dir.ids()[rng.next_below(st->dir.size())];
    st->streams.push_back(make_stream(st->dir, source, tr));
  }
  {
    Scope s(tr, "dataplane.build");
    const Stream& first = st->streams.front();
    st->plane = std::make_unique<Plane>(first.tree, st->lat, first.uplinks);
  }
  return st;
}

struct RepOut {
  double run_s = 0;
  dataplane::ForwardStats stats;
  std::uint64_t heartbeats = 0;
  std::uint64_t bus_events = 0;
  std::uint64_t allocs = 0;
  bool same_as(const RepOut& o) const {
    const auto& a = stats;
    const auto& b = o.stats;
    return a.session.session_rate_kbps == b.session.session_rate_kbps &&
           a.session.completion_ms == b.session.completion_ms &&
           a.session.max_first_packet_ms == b.session.max_first_packet_ms &&
           a.copies_sent == b.copies_sent &&
           a.copies_delivered == b.copies_delivered &&
           a.delegated_copies == b.delegated_copies &&
           a.max_backlog_ms == b.max_backlog_ms && heartbeats == o.heartbeats;
  }
};

/// Tallied wrappers around DepthFeed::hooks(), installed in the traced
/// pass only: each forwards to the feed and charges its time to the
/// enclosing dataplane.run span. Allocations made while the bus
/// simulator runs (inside publish and advance) add to `sim_allocs`.
dataplane::DepthFeedHooks timed_hooks(dataplane::DepthFeedHooks inner,
                                      Tracer& tr, std::uint64_t& sim_allocs) {
  const std::size_t pub = tr.tally_slot("proto.feed_publish");
  const std::size_t adv = tr.tally_slot("proto.feed_advance");
  const std::size_t smp = tr.tally_slot("proto.feed_sample");
  dataplane::DepthFeedHooks h;
  h.publish = [&tr, &sim_allocs, pub, f = inner.publish](Id c, double b,
                                                           SimTime t) {
    const std::uint64_t a0 = allocs();
    const std::uint64_t t0 = now_ns();
    f(c, b, t);
    tr.tally(pub, now_ns() - t0);
    sim_allocs += allocs() - a0;
  };
  h.advance = [&tr, &sim_allocs, adv, f = inner.advance](SimTime t) {
    const std::uint64_t a0 = allocs();
    const std::uint64_t t0 = now_ns();
    f(t);
    tr.tally(adv, now_ns() - t0);
    sim_allocs += allocs() - a0;
  };
  h.sample = [&tr, smp, f = inner.sample](Id o, Id p) {
    const std::uint64_t t0 = now_ns();
    const double v = f(o, p);
    tr.tally(smp, now_ns() - t0);
    return v;
  };
  return h;
}

RepOut rep(Setup& st, int i, Tracer& tr, std::uint64_t& sim_allocs,
           Report& report) {
  if (st.plane == nullptr) {
    Scope s(tr, "dataplane.build");
    const Stream& stream = st.streams[static_cast<std::size_t>(i % kTrees)];
    st.plane = std::make_unique<Plane>(stream.tree, st.lat, stream.uplinks);
  }
  Plane& p = *st.plane;
  p.fwd.set_depth_feed(tr.on() ? timed_hooks(p.feed.hooks(), tr, sim_allocs)
                               : p.feed.hooks());
  RepOut out;
  {
    Scope s(tr, "dataplane.run");
    const std::uint64_t a0 = allocs();
    const double t0 = now_s();
    out.stats = p.fwd.run(traffic());
    out.run_s = now_s() - t0;
    out.allocs = allocs() - a0;
  }
  out.heartbeats = p.feed.heartbeats_sent();
  out.bus_events = p.sim.events_executed();
  st.plane.reset();  // single-shot: the next repetition builds afresh
  if (out.stats.copies_delivered != out.stats.copies_expected) {
    report.fail("hotspot_stream: delivered " +
                std::to_string(out.stats.copies_delivered) + " of " +
                std::to_string(out.stats.copies_expected) + " copies");
  }
  ++report.attempted;
  return out;
}

/// Repetition i must reproduce the reference run of the same tree.
void check_replay(const std::vector<RepOut>& reps,
                  const std::vector<RepOut>& ref, Report& report) {
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (!reps[i].same_as(ref[i % kTrees])) {
      report.fail("hotspot_stream: repetition " + std::to_string(i) +
                  " did not reproduce the outputs of its tree");
    }
  }
}

double delivered(const RepOut& r) {
  return r.stats.copies_delivered == r.stats.copies_expected
             ? static_cast<double>(r.stats.copies_delivered)
             : 0.0;
}

}  // namespace

Report run_hotspot_stream(const Options& opt, Tracer& tr) {
  Report report;
  std::unique_ptr<Setup> st;
  std::vector<RepOut> reps;
  std::uint64_t sim_allocs = 0;

  if (!opt.trace) {
    const auto make = [&] { return build(opt.seed, tr); };
    const double first_setup = setup_batch(st, make);
    repeat_for(opt.seconds, kTrees, [&](int i) {
      reps.push_back(rep(*st, i, tr, sim_allocs, report));
    });
    const double peak_rss = peak_rss_mb();
    check_replay(reps, reps, report);
    // Repetitions of different trees do different work, so the
    // throughputs time one pass over the kTrees trees, each at the
    // fastest of its repetitions.
    std::vector<double> run_s;
    double got = 0, expected = 0;
    for (const RepOut& r : reps) {
      run_s.push_back(r.run_s);
      got += delivered(r);
      expected += static_cast<double>(r.stats.copies_expected);
    }
    double copies = 0, packets = 0, sim_s = 0;
    for (std::size_t t = 0; t < static_cast<std::size_t>(kTrees); ++t) {
      copies += delivered(reps[t]);
      packets += static_cast<double>(reps[t].stats.packets_emitted);
      sim_s += reps[t].stats.session.completion_ms * 1e-3;
    }
    report.add("setup_s", reference_s(finish_setups(first_setup, st, make)));
    const double pass_s =
        reference_s(fastest_pass(run_s, static_cast<std::size_t>(kTrees)));
    const std::unique_ptr<Setup> ref = build(kReferenceSeed, tr);
    std::vector<double> rate, first_packet;
    for (int i = 0; i < kTrees; ++i) {
      const RepOut r = rep(*ref, i, tr, sim_allocs, report);
      rate.push_back(r.stats.session.session_rate_kbps);
      first_packet.push_back(r.stats.session.max_first_packet_ms);
    }
    report.add("copies_per_s", copies / pass_s);
    report.add("ops_per_s", packets / pass_s);
    report.add("sim_s_per_s", sim_s / pass_s);
    report.add("peak_rss_mb", peak_rss);
    report.add("delivery_ratio", expected == 0 ? 0 : got / expected);
    report.add("goodput_kbps", median(rate));
    report.add("p99_latency_ms", median(first_packet));
    return report;
  }

  // Traced run: repetitions alternate between untraced and traced (spans,
  // tallied DepthFeed hooks, allocation counting).
  tr.set_on(true);
  st = build(opt.seed, tr);
  const double rss_after_setup = rss_mb();
  std::vector<double> plain_s, traced_s;
  std::vector<RepOut> traced;
  const int n = alternate_traced(tr, opt.seconds, kTrees, [&](int i, bool on) {
    std::vector<RepOut>& out = on ? traced : reps;
    out.push_back(rep(*st, i, tr, sim_allocs, report));
    (on ? traced_s : plain_s).push_back(out.back().run_s);
  });
  check_replay(reps, reps, report);
  check_replay(traced, reps, report);

  double copies = 0, events = 0, allocs_run = 0, heartbeats = 0;
  double sim_s = 0, delegated = 0, sent = 0;
  for (const RepOut& r : traced) {
    copies += static_cast<double>(r.stats.copies_delivered);
    events += static_cast<double>(r.bus_events);
    allocs_run += static_cast<double>(r.allocs);
    heartbeats += static_cast<double>(r.heartbeats);
    sim_s += r.stats.session.completion_ms * 1e-3;
    delegated += static_cast<double>(r.stats.delegated_copies);
    sent += static_cast<double>(r.stats.copies_sent);
  }
  const double reps_d = static_cast<double>(n);
  auto tally_s = [&](const char* name) {
    return static_cast<double>(tr.tally_at(tr.tally_slot(name)).ns) * 1e-9;
  };
  const double feed_s = tally_s("proto.feed_publish") +
                        tally_s("proto.feed_advance");
  // Mean over every traced forwarder build: set-up's and each repetition's.
  report.add("workload.population_s", tr.total_s("workload.population"));
  report.add("strategy.build_tree_s", tr.total_s("strategy.build_tree"));
  report.add("dataplane.build_s", tr.total_s("dataplane.build") /
                                      static_cast<double>(tr.count("dataplane.build")));
  report.add("dataplane.self_ns_per_copy",
             tr.self_s("dataplane.run") * 1e9 / copies);
  // The dataplane's own allocations: the bus simulator's are sim's.
  report.add("dataplane.allocs_per_copy",
             (allocs_run - static_cast<double>(sim_allocs)) / copies);
  report.add("dataplane.delegated_share", sent == 0 ? 0 : delegated / sent);
  report.add("proto.feed_advance_s", tally_s("proto.feed_advance") / reps_d);
  report.add("proto.feed_publish_s", tally_s("proto.feed_publish") / reps_d);
  report.add("proto.feed_sample_s", tally_s("proto.feed_sample") / reps_d);
  report.add("proto.heartbeats_per_copy", heartbeats / copies);
  report.add("sim.ns_per_event", events == 0 ? 0 : feed_s * 1e9 / events);
  report.add("sim.events_per_sim_s", sim_s == 0 ? 0 : events / sim_s);
  report.add("sim.allocs_per_event",
             events == 0 ? 0 : static_cast<double>(sim_allocs) / events);
  report.add("rss.after_setup_mb", rss_after_setup);
  report.add("trace.overhead_pct",
             100.0 * (median(traced_s) - median(plain_s)) / median(plain_s));
  return report;
}

}  // namespace perfbench
