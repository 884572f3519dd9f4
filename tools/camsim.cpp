// camsim — command-line driver for the CAM multicast simulator.
//
// All subcommands share ONE flag table (src/runtime/flags.h): every
// option parses the same way everywhere, unknown flags are hard errors,
// and `camsim <cmd>` with a bad flag prints the generated option list.
// Sweep flags, available to every subcommand that runs seeded cells:
//
//   --seeds=A..B   run one cell per seed in [A..B] (sweep mode) instead
//                  of the single --seed run
//   --jobs=N       execute sweep cells on N worker threads (0 = hardware
//                  concurrency); output is byte-identical for any N
//   --out=FILE     redirect stdout to FILE
//
// Subcommands:
//   camsim multicast  --strategy=KEY[,KEY...] (see `camsim multicast
//                     --strategy=?` for the registry) [--n=N] [--bits=B]
//                     [--cap=LO:HI | --p=KBPS] [--param=C] [--sources=K]
//                     [--seed=S] [--histogram] [--seeds=A..B] [--jobs=N]
//       Runs K multicasts over a converged overlay and prints tree
//       metrics (throughput, path lengths, children, optional
//       histogram). With --seeds, runs one independent world per seed
//       (population + sources reseeded) in parallel and prints a
//       per-seed table plus the mean row. A comma list runs every
//       named strategy over the same worlds — the head-to-head grid.
//
//   camsim lookup     --strategy=KEY[,KEY...] [--n=N] [--bits=B]
//                     [--cap=LO:HI] [--queries=Q] [--seed=S] [--param=C]
//       Runs Q random lookups per routing-capable strategy and prints
//       hop statistics, one row per strategy.
//
//   camsim churn      [--n=N] [--fail=FRAC] [--seed=S]
//       Protocol-mode churn scenario: delivery before/after repair.
//
//   camsim stream     [--n=N] [--p=KBPS] [--packets=K] [--seed=S]
//       Packet-level streaming over a CAM-Chord tree.
//
//   camsim async      --strategy=camchord|camkoorde [--n=N] [--bits=B]
//                     [--cap=LO:HI] [--loss=P] [--retries=K] [--seed=S]
//                     [--trace=FILE] [--timeline=FILE] [--metrics=FILE]
//                     [--metrics-csv=FILE] [--trace-all]
//       Fully asynchronous protocol-mode multicast with the telemetry
//       subsystem attached: grows the overlay, runs one multicast,
//       verifies that the trace replays to the recorded tree, prints a
//       telemetry summary, and dumps the JSON Lines trace / timeline /
//       metrics snapshot to the given files.
//
//   camsim chaos      --strategy=KEY[,KEY...] [--n=N] [--bits=B]
//                     [--cap=LO:HI] [--seed=S] [--plan=FILE]
//                     [--plan-text=DSL] [--settle=MS] [--no-quiesce]
//                     [--repair|--no-repair] [--seeds=A..B] [--jobs=N]
//       Deterministic fault-injection run (src/fault): grows the
//       overlay, executes a FaultPlan (drops, duplicates, reordering,
//       partitions, churn — see fault/fault_plan.h for the DSL), checks
//       every protocol invariant, and prints the full report including
//       the realized fault journal and telemetry counters. The report
//       is a deterministic function of (options, plan): rerunning with
//       the same seed reproduces it byte for byte. Exits nonzero on any
//       invariant violation. Without --plan/--plan-text a stock mixed
//       plan is used; --no-quiesce skips the heal + re-stabilize phase
//       (the final checks then run against the still-faulted overlay).
//       The delivery-repair layer (orphan-region re-delegation +
//       anti-entropy pulls) is on by default; --no-repair disables it
//       to measure the unrepaired baseline, and the eventual-delivery
//       invariant then reports every surviving member a mid-fault
//       multicast failed to reach. With --seeds, the whole chaos world
//       is rerun once per seed (cells run in parallel under --jobs) and
//       one compact line is printed per seed plus a sweep summary; the
//       exit code is nonzero if ANY seed violated an invariant.
//
//   camsim groups     --strategy=camchord|camkoorde [--n=N] [--bits=B]
//                     [--cap=LO:HI] [--seed=S] [--plan=FILE]
//                     [--plan-text=DSL] [--ngroups=G] [--group-max=M]
//                     [--mode=shared|ledger] [--packets=K]
//                     [--stream-groups=K] [--chaos] [--detect]
//                     [--no-standby] [--no-park] [--hb=MS]
//                     [--stream-crash] [--seeds=A..B] [--jobs=N]
//       Many-group session layer (src/session): expands a WorkloadPlan
//       (workload/session_workload.h DSL — zipf group fleets, flash
//       crowds, diurnal churn, regional failure bursts; default: one
//       zipf fleet of --ngroups groups) into a membership script,
//       replays it through capacity-aware admission against the shared
//       CapacityLedger, then streams the surviving groups concurrently
//       through the multi-group dataplane and prints the aggregate
//       scoreboard (goodput, Jain fairness, p99 latency) plus per-group
//       lines. --mode picks the service discipline (shared FIFO uplink
//       vs per-group ledger shares). With --chaos the session chaos
//       harness runs instead: group-level invariants are swept during
//       the replay and the full deterministic report is printed (exits
//       nonzero on any violation). --detect switches the chaos harness
//       to detection-driven failover: workload crashes are discovered
//       by the heartbeat failure detector (announce at the first live
//       watcher's suspicion deadline) instead of applied by the oracle,
//       with standby re-hangs and graceful degradation on by default
//       (--no-standby / --no-park turn them off, --hb sets the
//       heartbeat period, --stream-crash also kills one interior member
//       mid-stream and drives the dataplane FailoverScript from the
//       detector). --seeds sweeps whole worlds in parallel, one compact
//       line per seed, byte-identical for any --jobs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "camchord/net.h"
#include "camchord/oracle.h"
#include "dataplane/forwarder.h"
#include "experiments/runner.h"
#include "experiments/table.h"
#include "experiments/telemetry_report.h"
#include "fault/chaos_run.h"
#include "fault/session_chaos.h"
#include "multicast/metrics.h"
#include "proto/async_camchord.h"
#include "proto/async_camkoorde.h"
#include "runtime/cells.h"
#include "runtime/flags.h"
#include "strategy/chaos.h"
#include "strategy/strategy.h"
#include "telemetry/export.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/population.h"

namespace {

using namespace cam;
using namespace cam::exp;

struct Args {
  std::string command;
  std::string strategy = "camchord";  // registry key, or comma list
  std::size_t n = 10'000;
  int bits = 19;
  std::uint32_t cap_lo = 4, cap_hi = 10;
  double p = 0;  // 0 = use --cap range instead
  std::uint32_t param = 8;
  std::size_t sources = 3;
  std::size_t queries = 200;
  double fail = 0.15;
  std::uint32_t packets = 48;
  std::uint64_t seed = 1;
  bool histogram = false;
  // sweep mode (any seeded subcommand)
  runtime::SeedRange seeds;
  bool sweep = false;  // --seeds was given explicitly
  std::size_t jobs = 1;
  std::string out_file;
  // async subcommand
  double loss = 0;
  int retries = 2;
  std::string trace_file;
  std::string timeline_file;
  std::string metrics_file;
  std::string metrics_csv_file;
  bool trace_all = false;
  // chaos subcommand
  std::string plan_file;
  std::string plan_text;
  double settle_ms = 240'000;
  bool no_quiesce = false;
  bool repair = true;
  // groups subcommand
  std::size_t ngroups = 16;
  std::uint32_t group_max = 32;
  std::string mode = "shared";
  std::size_t stream_groups = 0;
  bool session_chaos = false;
  bool detect = false;
  bool standby = true;
  bool park = true;
  double hb_period_ms = 2.0;
  bool stream_crash = false;
};

/// The one flag table every subcommand parses against. Registering all
/// flags in a single set keeps "--seed means the same thing everywhere"
/// true by construction and makes usage() self-maintaining.
runtime::FlagSet make_flags(Args& a) {
  runtime::FlagSet f;
  f.add("strategy",
        "tree strategy key (comma list for head-to-head): " +
            strategy::registry().joined_names(),
        &a.strategy);
  f.add("n", "group size", &a.n);
  f.add("bits", "ring identifier bits", &a.bits, RingSpace::kMinBits,
        RingSpace::kMaxBits);
  f.add_parsed("cap", "capacity range LO:HI (uniform population)",
               [&a](const std::string& v, std::string* error) {
                 auto colon = v.find(':');
                 std::uint64_t lo = 0, hi = 0;
                 if (colon == std::string::npos ||
                     !runtime::detail::parse_u64(v.substr(0, colon), &lo,
                                                 error) ||
                     !runtime::detail::parse_u64(v.substr(colon + 1), &hi,
                                                 error)) {
                   *error = "expected LO:HI";
                   return false;
                 }
                 a.cap_lo = static_cast<std::uint32_t>(lo);
                 a.cap_hi = static_cast<std::uint32_t>(hi);
                 return true;
               });
  f.add("p", "per-link kbps (bandwidth-derived population)", &a.p);
  f.add("param", "structural parameter for chord/koorde", &a.param);
  f.add("sources", "multicast trees per run", &a.sources);
  f.add("queries", "lookup queries", &a.queries);
  f.add("fail", "failed fraction (churn)", &a.fail);
  f.add("packets", "stream packets", &a.packets);
  f.add("seed", "master seed (single run)", &a.seed);
  f.add("seeds", "seed sweep A..B (one cell per seed)", &a.seeds);
  f.add("jobs", "parallel sweep workers (0 = hardware)", &a.jobs);
  f.add("out", "redirect stdout to FILE", &a.out_file);
  f.add_switch("histogram", "print the depth histogram", &a.histogram);
  f.add("loss", "datagram loss probability (async)", &a.loss);
  f.add("retries", "multicast retransmissions (async)", &a.retries);
  f.add("trace", "write JSONL trace to FILE", &a.trace_file);
  f.add("timeline", "write event timeline to FILE", &a.timeline_file);
  f.add("metrics", "write metrics JSON to FILE", &a.metrics_file);
  f.add("metrics-csv", "write metrics CSV to FILE", &a.metrics_csv_file);
  f.add_switch("trace-all", "trace every event type", &a.trace_all);
  f.add("plan", "read the fault plan DSL from FILE", &a.plan_file);
  f.add("plan-text", "inline fault plan DSL", &a.plan_text);
  f.add("settle", "post-heal settle budget ms (chaos)", &a.settle_ms);
  f.add_switch("no-quiesce", "skip heal + re-stabilize (chaos)",
               &a.no_quiesce);
  f.add_switch("repair", "enable the delivery-repair layer", &a.repair);
  f.add_switch("no-repair", "disable the delivery-repair layer", &a.repair,
               false);
  f.add("ngroups", "default workload: zipf fleet size (groups)", &a.ngroups);
  f.add("group-max", "default workload: largest group size", &a.group_max);
  f.add("mode", "session scheduling: shared|ledger", &a.mode);
  f.add("stream-groups", "cap on streamed groups (0 = all)",
        &a.stream_groups);
  f.add_switch("chaos", "run the session invariant/chaos harness (groups)",
               &a.session_chaos);
  f.add_switch("detect", "detection-driven failover (groups --chaos)",
               &a.detect);
  f.add_switch("no-standby", "disable standby parents (--detect)",
               &a.standby, false);
  f.add_switch("no-park", "disable graceful degradation (--detect)",
               &a.park, false);
  f.add("hb", "heartbeat period ms (--detect)", &a.hb_period_ms);
  f.add_switch("stream-crash", "mid-stream detected crash (--detect)",
               &a.stream_crash);
  return f;
}

[[noreturn]] void usage(const std::string& detail = {}) {
  Args defaults;
  runtime::FlagSet f = make_flags(defaults);
  if (!detail.empty()) std::fprintf(stderr, "camsim: %s\n", detail.c_str());
  std::fprintf(stderr,
               "usage: camsim <multicast|lookup|churn|stream|async|chaos"
               "|groups> "
               "[options]\noptions (shared by all subcommands):\n%s",
               f.usage().c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.command = argv[1];
  runtime::FlagSet f = make_flags(a);
  std::string error;
  if (!f.parse(argc, argv, 2, &error)) usage(error);
  a.sweep = f.provided("seeds");
  return a;
}

/// Splits --strategy's comma list and validates every key against the
/// registry; unknown names list the registered keys in the error.
std::vector<std::string> strategies_of(const Args& a) {
  std::vector<std::string> keys;
  std::size_t pos = 0;
  while (pos <= a.strategy.size()) {
    std::size_t comma = a.strategy.find(',', pos);
    if (comma == std::string::npos) comma = a.strategy.size();
    std::string key = a.strategy.substr(pos, comma - pos);
    if (!key.empty()) keys.push_back(std::move(key));
    pos = comma + 1;
  }
  if (keys.empty()) usage("--strategy needs at least one name");
  for (const std::string& key : keys) {
    if (strategy::registry().find(key) == nullptr) {
      usage("unknown strategy '" + key + "' (registered: " +
            strategy::registry().joined_names() + ")");
    }
  }
  return keys;
}

/// Structural knobs shared by every subcommand: --param feeds the
/// Chord base / Koorde degree and the rivals' uniform provisioning.
strategy::StrategyParams params_of(const Args& a) {
  strategy::StrategyParams p;
  p.uniform_degree = a.param;
  p.geo_neighbors = a.param;
  p.degree_bound = a.param;
  return p;
}

/// The population recipe one cell materializes: seeded per cell so a
/// seed sweep reruns the whole world, not just the source draw.
runtime::PopulationRecipe recipe(const Args& a, std::uint64_t seed) {
  workload::PopulationSpec spec;
  spec.n = a.n;
  spec.ring_bits = a.bits;
  spec.seed = seed;
  if (a.p > 0) {
    return runtime::PopulationRecipe::bandwidth_derived(spec, a.p, 4);
  }
  return runtime::PopulationRecipe::uniform(spec, a.cap_lo, a.cap_hi);
}

int cmd_multicast(const Args& a) {
  const std::vector<std::string> keys = strategies_of(a);
  const strategy::StrategyParams params = params_of(a);
  if (a.sweep || keys.size() > 1) {
    // One cell per (strategy, seed), run on the ShardTeam lanes of
    // runtime::for_each_cell. With a comma list this is the head-to-head
    // grid: same populations, same source draws, one row per cell plus a
    // mean row per strategy. The rows and the means are identical for any
    // --jobs value.
    std::vector<runtime::CellSpec> cells;
    const std::uint64_t seed_lo = a.sweep ? a.seeds.lo : a.seed;
    const std::uint64_t seed_hi = a.sweep ? a.seeds.hi : a.seed;
    for (const std::string& key : keys) {
      for (std::uint64_t s = seed_lo; s <= seed_hi; ++s) {
        runtime::CellSpec cell;
        cell.strategy = key;
        cell.population = recipe(a, s);
        cell.sources = a.sources;
        cell.seed = s;
        cell.params = params;
        cells.push_back(cell);
      }
    }
    std::vector<AveragedRun> runs =
        runtime::run_cells(cells, {.jobs = a.jobs});

    std::printf("strategies        %s\n", a.strategy.c_str());
    std::printf("seeds             %llu..%llu (%zu cells, %zu trees each)\n",
                static_cast<unsigned long long>(seed_lo),
                static_cast<unsigned long long>(seed_hi), runs.size(),
                a.sources);
    Table table({"strategy", "seed", "reached", "children", "degree", "kbps",
                 "provisioned", "path", "maxdepth"});
    const std::size_t per = seed_hi - seed_lo + 1;
    for (std::size_t ki = 0; ki < keys.size(); ++ki) {
      double children = 0, degree = 0, kbps = 0, prov = 0, path = 0,
             depth = 0;
      for (std::size_t i = ki * per; i < (ki + 1) * per; ++i) {
        const AveragedRun& r = runs[i];
        table.add_row({keys[ki], std::to_string(cells[i].seed),
                       std::to_string(r.reached) + "/" +
                           std::to_string(r.expected),
                       fmt(r.avg_children), fmt(r.avg_degree),
                       fmt(r.throughput_kbps, 1), fmt(r.provisioned_kbps, 1),
                       fmt(r.avg_path), fmt(r.max_depth, 1)});
        children += r.avg_children;
        degree += r.avg_degree;
        kbps += r.throughput_kbps;
        prov += r.provisioned_kbps;
        path += r.avg_path;
        depth += r.max_depth;
      }
      auto k = static_cast<double>(per);
      table.add_row({keys[ki], "mean", "-", fmt(children / k),
                     fmt(degree / k), fmt(kbps / k, 1), fmt(prov / k, 1),
                     fmt(path / k), fmt(depth / k, 1)});
    }
    table.print(std::cout);
    return 0;
  }

  const auto& strat = strategy::registry().make(keys.front());
  FrozenDirectory dir = recipe(a, a.seed).build();
  AveragedRun r = run_sources(strat, dir, a.sources, a.seed, params);
  std::printf("strategy          %s\n",
              std::string(strat.display_name()).c_str());
  std::printf("members           %zu (reached %zu)\n", r.expected, r.reached);
  std::printf("avg children      %.2f (provisioned degree %.2f)\n",
              r.avg_children, r.avg_degree);
  std::printf("throughput        %.1f kbps realized, %.1f kbps provisioned\n",
              r.throughput_kbps, r.provisioned_kbps);
  std::printf("path length       %.2f avg, %.1f max\n", r.avg_path,
              r.max_depth);
  if (a.histogram) {
    std::printf("hops  nodes\n");
    for (std::size_t h = 0; h < r.depth_histogram.size(); ++h) {
      std::printf("%4zu  %llu\n", h,
                  static_cast<unsigned long long>(r.depth_histogram[h]));
    }
  }
  return 0;
}

int cmd_lookup(const Args& a) {
  const std::vector<std::string> keys = strategies_of(a);
  const strategy::StrategyParams params = params_of(a);
  FrozenDirectory dir = recipe(a, a.seed).build();
  Table table({"strategy", "queries", "failed", "mean_hops", "max_hops"});
  for (const std::string& key : keys) {
    const auto& strat = strategy::registry().make(key);
    if (!strat.supports_lookup()) {
      std::fprintf(stderr,
                   "camsim: strategy '%s' does not support lookup "
                   "(pure tree builder)\n",
                   key.c_str());
      if (keys.size() == 1) return 2;
      continue;
    }
    Rng rng(a.seed ^ 0x1001);
    double total = 0;
    std::size_t max_hops = 0, failed = 0;
    for (std::size_t q = 0; q < a.queries; ++q) {
      Id from = dir.ids()[rng.next_below(dir.size())];
      Id k = rng.next_below(dir.ring().size());
      LookupResult r = strat.lookup(dir, from, k, params);
      if (!r.ok) {
        ++failed;
        continue;
      }
      total += static_cast<double>(r.hops());
      max_hops = std::max(max_hops, r.hops());
    }
    table.add_row(
        {key, std::to_string(a.queries), std::to_string(failed),
         fmt(total / static_cast<double>(a.queries - failed), 2),
         std::to_string(max_hops)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_churn(const Args& a) {
  RingSpace ring(a.bits);
  Simulator sim;
  ConstantLatency lat(1.0);
  Network net(sim, lat);
  camchord::CamChordNet overlay(ring, net);
  Rng rng(a.seed);
  overlay.bootstrap(rng.next_below(ring.size()),
                    {.capacity = a.cap_hi, .bandwidth_kbps = 700});
  workload::join_random(overlay, a.n - 1, a.cap_lo, a.cap_hi, 400, 1000, rng);
  overlay.converge();
  std::printf("members   %zu converged\n", overlay.size());

  workload::fail_random_fraction(overlay, a.fail, rng);
  auto members = overlay.members_sorted();
  MulticastTree before = overlay.multicast(members.front());
  std::printf("failed    %.0f%%: delivery %.1f%% before repair\n",
              a.fail * 100,
              100.0 * static_cast<double>(before.size()) /
                  static_cast<double>(overlay.size()));
  overlay.converge();
  MulticastTree after = overlay.multicast(members.front());
  std::printf("repaired  delivery %.1f%% after converge\n",
              100.0 * static_cast<double>(after.size()) /
                  static_cast<double>(overlay.size()));
  return 0;
}

int cmd_stream(const Args& a) {
  Args b = a;
  if (b.p == 0) b.p = 100;
  FrozenDirectory dir = recipe(b, b.seed).build();
  auto cap = [&dir](Id x) { return dir.info(x).capacity; };
  auto bw = [&dir](Id x) { return dir.info(x).bandwidth_kbps; };
  MulticastTree tree =
      camchord::multicast(dir.ring(), dir, cap, dir.ids()[0]);
  ConstantLatency lat(10.0);
  dataplane::TrafficSpec traffic;
  traffic.num_packets = b.packets;
  dataplane::ForwarderConfig fifo;
  fifo.backpressure = false;  // the paper's Section 4.3 FIFO uplinks
  dataplane::BackpressureForwarder fwd(tree, lat, fifo);
  fwd.resolve_uplinks(bw);
  const dataplane::SessionStats r = fwd.run(traffic).session;
  std::printf("receivers        %zu\n", r.receivers);
  std::printf("session rate     %.1f kbps (analytic %.1f)\n",
              r.session_rate_kbps, tree_throughput_kbps(tree, bw));
  std::printf("first packet     %.0f ms to the slowest receiver\n",
              r.max_first_packet_ms);
  std::printf("full stream      %.0f ms\n", r.completion_ms);
  return 0;
}

// Protocol-mode multicast with the telemetry stack attached end to end.
// The registry counts from the first join; the tracer is attached only
// after convergence so the bounded ring holds the multicast rather than
// megabytes of maintenance chatter (pass --trace-all to widen the mask).
int cmd_async(const Args& a) {
  RingSpace ring(a.bits);
  Simulator sim;
  UniformLatency lat(5, 25, a.seed ^ 0x5eed);
  Network net(sim, lat);
  proto::HostBus bus(net);
  proto::AsyncConfig cfg;
  cfg.multicast_retries = a.retries;
  Rng rng(a.seed);

  // Sinks precede the overlay: they must outlive the host attached to
  // them. Capacity scales with n so nothing milestone-rated is evicted.
  telemetry::Registry reg;
  std::size_t cap = std::max<std::size_t>(std::size_t{1} << 16, 64 * a.n);
  telemetry::Tracer tracer(cap, a.trace_all ? telemetry::kAllEvents
                                            : telemetry::kMilestoneEvents);

  std::unique_ptr<proto::AsyncOverlayNet> overlay;
  if (a.strategy == "camchord") {
    overlay = std::make_unique<proto::AsyncCamChordNet>(ring, bus, cfg);
  } else if (a.strategy == "camkoorde") {
    overlay = std::make_unique<proto::AsyncCamKoordeNet>(ring, bus, cfg);
  } else {
    usage("async needs --strategy=camchord|camkoorde (protocol-mode "
          "stacks exist only for the CAMs)");
  }

  overlay->set_telemetry({&reg, nullptr});

  auto info = [&] {
    return NodeInfo{
        static_cast<std::uint32_t>(rng.uniform(a.cap_lo, a.cap_hi)),
        400 + rng.next_double() * 600};
  };
  overlay->bootstrap(rng.next_below(ring.size()), info());
  overlay->run_for(500);
  while (overlay->size() < a.n) {
    std::size_t batch = std::min<std::size_t>(8, a.n - overlay->size());
    auto members = overlay->members_sorted();
    for (std::size_t i = 0; i < batch; ++i) {
      Id id = rng.next_below(ring.size());
      if (overlay->known(id)) continue;
      overlay->spawn(id, info(), members[rng.next_below(members.size())]);
    }
    overlay->run_for(400);
  }
  SimTime deadline = sim.now() + 240'000;
  while (sim.now() < deadline && overlay->ring_consistency() < 1.0) {
    overlay->run_for(2'000);
  }
  overlay->run_for(30'000);  // entry refresh
  std::printf("members      %zu (ring consistency %.3f)\n", overlay->size(),
              overlay->ring_consistency());

  // Trace from here on: the multicast and whatever maintenance the mask
  // admits.
  overlay->set_telemetry({&reg, &tracer});
  if (a.loss > 0) bus.set_loss(a.loss, a.seed ^ 0x1055);

  Id source = overlay->members_sorted()[rng.next_below(overlay->size())];
  MulticastTree tree = overlay->multicast(source);
  int max_depth = 0;
  for (const auto& [id, rec] : tree.entries()) {
    max_depth = std::max(max_depth, rec.depth);
  }
  std::printf("multicast    source %llu reached %zu/%zu, max depth %d\n",
              static_cast<unsigned long long>(source), tree.size(),
              overlay->size(), max_depth);

  // Replay the trace and check it reconstructs the recorded tree exactly.
  auto events = tracer.events();
  auto replayed =
      telemetry::replay_multicast(events, overlay->last_stream_id());
  std::size_t mismatches = 0;
  if (replayed.size() != tree.entries().size()) {
    ++mismatches;
  } else {
    for (const auto& [id, rec] : tree.entries()) {
      auto it = replayed.find(id);
      if (it == replayed.end() || it->second.parent != rec.parent ||
          it->second.depth != rec.depth) {
        ++mismatches;
      }
    }
  }
  std::printf("replay       %s (%zu deliveries from %zu traced events%s)\n",
              mismatches == 0 ? "ok — trace matches recorded tree"
                              : "MISMATCH",
              replayed.size(), events.size(),
              tracer.dropped() > 0 ? ", ring overflowed" : "");

  auto dump = [](const std::string& path, const std::string& what,
                 auto&& writer) {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "camsim: cannot open %s\n", path.c_str());
      return;
    }
    writer(out);
    std::printf("wrote        %s (%s)\n", path.c_str(), what.c_str());
  };
  dump(a.trace_file, "JSONL trace",
       [&](std::ostream& o) { telemetry::write_jsonl(events, o); });
  dump(a.timeline_file, "timeline",
       [&](std::ostream& o) { telemetry::write_timeline(events, o); });
  dump(a.metrics_file, "metrics JSON",
       [&](std::ostream& o) { telemetry::write_json(reg, o); });
  dump(a.metrics_csv_file, "metrics CSV",
       [&](std::ostream& o) { telemetry::write_csv(reg, o); });

  std::printf("\n");
  print_telemetry_summary(reg, std::cout);
  return mismatches == 0 ? 0 : 1;
}

// Deterministic fault-injection run; see src/fault/chaos_run.h.
int cmd_chaos(const Args& a) {
  fault::FaultPlan plan = fault::default_chaos_plan();
  if (!a.plan_file.empty() || !a.plan_text.empty()) {
    std::string text = a.plan_text;
    if (!a.plan_file.empty()) {
      std::ifstream in(a.plan_file);
      if (!in) {
        std::fprintf(stderr, "camsim: cannot open %s\n",
                     a.plan_file.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
    std::string error;
    auto parsed = fault::FaultPlan::parse(text, &error);
    if (!parsed) {
      std::fprintf(stderr, "camsim: bad plan: %s\n", error.c_str());
      return 2;
    }
    plan = std::move(*parsed);
  }

  const std::vector<std::string> keys = strategies_of(a);
  bool all_protocol = true;
  for (const std::string& key : keys) {
    if (!strategy::registry().make(key).has_protocol_mode()) {
      all_protocol = false;
    }
  }
  // Strategies without an async protocol stack (and comma-list
  // head-to-heads) run the oracle chaos harness instead: build the
  // tree, kill --fail of the non-source members, count survivors the
  // frozen tree still reaches, then rebuild over the healed membership.
  if (!all_protocol || keys.size() > 1) {
    const strategy::StrategyParams params = params_of(a);
    const std::uint64_t seed_lo = a.sweep ? a.seeds.lo : a.seed;
    const std::uint64_t seed_hi = a.sweep ? a.seeds.hi : a.seed;
    std::printf("oracle chaos strategies=%s fail=%.2f seeds=%llu..%llu\n",
                a.strategy.c_str(), a.fail,
                static_cast<unsigned long long>(seed_lo),
                static_cast<unsigned long long>(seed_hi));
    Table t({"strategy", "seed", "members", "killed", "delivered",
             "delivery", "rebuilt"});
    for (const std::string& key : keys) {
      const auto& strat = strategy::registry().make(key);
      for (std::uint64_t s = seed_lo; s <= seed_hi; ++s) {
        FrozenDirectory dir = recipe(a, s).build();
        Rng rng(s);
        const Id source = dir.ids()[rng.next_below(dir.size())];
        strategy::OracleChaosConfig ccfg;
        ccfg.kill_fraction = a.fail;
        ccfg.seed = s ^ 0xC4A05;
        const strategy::OracleChaosReport r =
            strategy::run_oracle_chaos(strat, dir, source, params, ccfg);
        t.add_row({key, std::to_string(s), std::to_string(r.members),
                   std::to_string(r.killed), std::to_string(r.delivered),
                   fmt(r.delivery_ratio, 3), fmt(r.rebuilt_ratio, 3)});
      }
    }
    t.print(std::cout);
    return 0;
  }

  fault::ChaosConfig cfg;
  cfg.system = keys.front();
  cfg.n = a.n;
  cfg.bits = a.bits;
  cfg.seed = a.seed;
  cfg.spawn.cap_lo = a.cap_lo;
  cfg.spawn.cap_hi = a.cap_hi;
  cfg.quiesce_budget_ms = a.settle_ms;
  cfg.force_quiescence = !a.no_quiesce;
  cfg.async.repair = a.repair;

  if (!a.sweep) {
    fault::ChaosReport report = fault::run_chaos(cfg, plan);
    std::fputs(report.render().c_str(), stdout);
    return report.ok ? 0 : 1;
  }

  // Seed sweep: one full chaos world per seed, run on the ShardTeam
  // lanes of runtime::for_each_cell.
  // Per-seed lines are compact (full reports would bury a violation in
  // megabytes); rerun the failing seed without --seeds for the full
  // deterministic report.
  std::vector<fault::ChaosCell> cells;
  for (std::uint64_t s = a.seeds.lo; s <= a.seeds.hi; ++s) {
    fault::ChaosCell cell{cfg, plan};
    cell.cfg.seed = s;
    cells.push_back(std::move(cell));
  }
  std::vector<fault::ChaosReport> reports =
      fault::run_chaos_cells(cells, a.jobs);

  std::printf("chaos sweep system=%s n=%zu bits=%d seeds=%llu..%llu\n",
              cfg.system.c_str(), cfg.n, cfg.bits,
              static_cast<unsigned long long>(a.seeds.lo),
              static_cast<unsigned long long>(a.seeds.hi));
  std::size_t bad = 0;
  double eventual_sum = 0;
  std::size_t eventual_count = 0;
  for (const fault::ChaosReport& r : reports) {
    for (const fault::ChaosMulticast& m : r.multicasts) {
      if (m.eligible > 0) {
        eventual_sum += m.eventual_ratio();
        ++eventual_count;
      }
    }
    if (r.ok) {
      std::printf("seed=%llu ok members=%zu consistency=%.3f\n",
                  static_cast<unsigned long long>(r.cfg.seed), r.members,
                  r.consistency);
      continue;
    }
    ++bad;
    // Deduplicate violation kinds so the line stays one line.
    std::set<std::string> kinds;
    for (const fault::Violation& v : r.violations) kinds.insert(v.check);
    std::string joined;
    for (const std::string& k : kinds) {
      if (!joined.empty()) joined += ",";
      joined += k;
    }
    std::printf("seed=%llu VIOLATIONS n=%zu kinds=%s\n",
                static_cast<unsigned long long>(r.cfg.seed),
                r.violations.size(), joined.c_str());
  }
  std::printf("summary: %zu/%zu seeds ok", reports.size() - bad,
              reports.size());
  if (eventual_count > 0) {
    std::printf(", mean eventual delivery %.3f",
                eventual_sum / static_cast<double>(eventual_count));
  }
  std::printf("\n");
  return bad == 0 ? 0 : 1;
}

// Many-group session layer runs; see src/session and
// src/workload/session_workload.h.
int cmd_groups(const Args& a) {
  if (a.strategy != "camchord" && a.strategy != "camkoorde") {
    usage("groups needs --strategy=camchord|camkoorde (session placement "
          "routes lookups over the member overlay)");
  }

  workload::WorkloadPlan plan;
  if (!a.plan_file.empty() || !a.plan_text.empty()) {
    std::string text = a.plan_text;
    if (!a.plan_file.empty()) {
      std::ifstream in(a.plan_file);
      if (!in) {
        std::fprintf(stderr, "camsim: cannot open %s\n",
                     a.plan_file.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
    std::string error;
    auto parsed = workload::WorkloadPlan::parse(text, &error);
    if (!parsed) {
      std::fprintf(stderr, "camsim: bad workload plan: %s\n",
                   error.c_str());
      return 2;
    }
    plan = std::move(*parsed);
  } else {
    plan.groups(static_cast<std::uint32_t>(a.ngroups), 1.0, 2,
                a.group_max);
  }

  session::SchedMode mode;
  if (a.mode == "shared") {
    mode = session::SchedMode::kShared;
  } else if (a.mode == "ledger") {
    mode = session::SchedMode::kLedgerShares;
  } else {
    usage("groups needs --mode=shared|ledger");
  }

  if (a.session_chaos) {
    fault::SessionChaosConfig cfg;
    cfg.system = a.strategy;
    cfg.n = a.n;
    cfg.bits = a.bits;
    cfg.seed = a.seed;
    cfg.cap_lo = a.cap_lo;
    cfg.cap_hi = a.cap_hi;
    cfg.stream_packets = a.packets;
    cfg.mode = mode;
    if (a.stream_groups != 0) cfg.stream_groups = a.stream_groups;
    cfg.detect = a.detect;
    cfg.standby = a.standby;
    cfg.park = a.park;
    cfg.hb_period_ms = a.hb_period_ms;
    cfg.stream_crash = a.stream_crash;

    if (!a.sweep) {
      fault::SessionChaosReport report =
          fault::run_session_chaos(cfg, plan);
      std::fputs(report.render().c_str(), stdout);
      return report.ok ? 0 : 1;
    }
    std::vector<fault::SessionChaosCell> cells;
    for (std::uint64_t s = a.seeds.lo; s <= a.seeds.hi; ++s) {
      fault::SessionChaosCell cell{cfg, plan};
      cell.cfg.seed = s;
      cells.push_back(std::move(cell));
    }
    std::vector<fault::SessionChaosReport> reports =
        fault::run_session_chaos_cells(cells, a.jobs);
    std::printf("groups chaos sweep system=%s n=%zu seeds=%llu..%llu\n",
                cfg.system.c_str(), cfg.n,
                static_cast<unsigned long long>(a.seeds.lo),
                static_cast<unsigned long long>(a.seeds.hi));
    std::size_t bad = 0;
    for (const fault::SessionChaosReport& r : reports) {
      if (r.ok) {
        std::printf("seed=%llu ok groups=%zu memberships=%zu dups=%llu",
                    static_cast<unsigned long long>(r.cfg.seed), r.groups,
                    r.memberships,
                    static_cast<unsigned long long>(r.dup_copies));
        if (r.cfg.detect) {
          std::printf(" detected=%zu/%zu detect_p50=%.3g standby=%llu"
                      " full=%llu parked=%llu",
                      r.detected_crashes, r.crash_victims,
                      r.detect_latency.quantile(0.5),
                      static_cast<unsigned long long>(
                          r.counters.reattach_standby),
                      static_cast<unsigned long long>(
                          r.counters.reattach_full),
                      static_cast<unsigned long long>(
                          r.counters.parked_subtrees));
        }
        std::printf("\n");
      } else {
        ++bad;
        std::printf("seed=%llu VIOLATIONS n=%zu\n",
                    static_cast<unsigned long long>(r.cfg.seed),
                    r.violations.size());
      }
    }
    std::printf("summary: %zu/%zu seeds ok\n", reports.size() - bad,
                reports.size());
    return bad == 0 ? 0 : 1;
  }

  auto cell_for = [&](std::uint64_t seed) {
    runtime::SessionCellSpec cell;
    cell.strategy = a.strategy;
    cell.population = recipe(a, seed);
    cell.seed = seed;
    cell.plan = plan;
    cell.fwd.mode = mode;
    cell.stream_packets = a.packets;
    cell.stream_groups = a.stream_groups;
    return cell;
  };

  if (!a.sweep) {
    const runtime::SessionCellResult r = run_session_cell(cell_for(a.seed));
    std::printf("groups system=%s n=%zu bits=%d seed=%llu mode=%s\n",
                a.strategy.c_str(), a.n, a.bits,
                static_cast<unsigned long long>(a.seed), a.mode.c_str());
    std::printf("plan:\n%s", plan.to_string().c_str());
    std::printf(
        "apply: creates=%llu joins_ok=%llu joins_rejected=%llu "
        "leaves=%llu fails=%llu\n",
        static_cast<unsigned long long>(r.apply.creates),
        static_cast<unsigned long long>(r.apply.joins_ok),
        static_cast<unsigned long long>(r.apply.joins_rejected),
        static_cast<unsigned long long>(r.apply.leaves),
        static_cast<unsigned long long>(r.apply.fails));
    const std::string check_str =
        r.check_violations == 0 ? "ok"
                                : std::to_string(r.check_violations);
    std::printf(
        "session: groups=%zu memberships=%zu reparented=%llu "
        "dropped=%llu max_util=%.3f check=%s\n",
        r.groups, r.memberships,
        static_cast<unsigned long long>(r.counters.reparented),
        static_cast<unsigned long long>(r.counters.dropped_members),
        r.max_utilization, check_str.c_str());
    std::printf(
        "stream: groups=%zu goodput=%.2f kbps jain=%.4f p99=%.2f ms "
        "completion=%.2f ms copies=%llu\n",
        r.stats.groups.size(), r.stats.aggregate_goodput_kbps,
        r.stats.jain_fairness, r.stats.p99_latency_ms,
        r.stats.completion_ms,
        static_cast<unsigned long long>(r.stats.copies_sent));
    constexpr std::size_t kMaxLines = 24;
    for (std::size_t i = 0;
         i < r.stats.groups.size() && i < kMaxLines; ++i) {
      const session::GroupRunStats& g = r.stats.groups[i];
      std::printf(
          "  group %llu: receivers=%zu rate=%.2f kbps p99=%.2f ms "
          "pauses=%llu dups=%llu\n",
          static_cast<unsigned long long>(g.group), g.session.receivers,
          g.session.session_rate_kbps, g.p99_latency_ms,
          static_cast<unsigned long long>(g.admission_pauses),
          static_cast<unsigned long long>(g.duplicate_deliveries));
    }
    if (r.stats.groups.size() > kMaxLines) {
      std::printf("  ... %zu more groups\n",
                  r.stats.groups.size() - kMaxLines);
    }
    return r.check_violations == 0 ? 0 : 1;
  }

  std::vector<runtime::SessionCellSpec> cells;
  for (std::uint64_t s = a.seeds.lo; s <= a.seeds.hi; ++s) {
    cells.push_back(cell_for(s));
  }
  const std::vector<runtime::SessionCellResult> results =
      runtime::run_cells(cells, {a.jobs});
  std::printf("groups sweep system=%s n=%zu mode=%s seeds=%llu..%llu\n",
              a.strategy.c_str(), a.n, a.mode.c_str(),
              static_cast<unsigned long long>(a.seeds.lo),
              static_cast<unsigned long long>(a.seeds.hi));
  std::size_t bad = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const runtime::SessionCellResult& r = results[i];
    if (r.check_violations != 0) ++bad;
    std::printf(
        "seed=%llu groups=%zu joined=%llu rejected=%llu util=%.3f "
        "goodput=%.2f jain=%.4f p99=%.2f check=%s\n",
        static_cast<unsigned long long>(a.seeds.lo + i), r.groups,
        static_cast<unsigned long long>(r.apply.joins_ok),
        static_cast<unsigned long long>(r.apply.joins_rejected),
        r.max_utilization, r.stats.aggregate_goodput_kbps,
        r.stats.jain_fairness, r.stats.p99_latency_ms,
        r.check_violations == 0 ? "ok" : "VIOLATIONS");
  }
  std::printf("summary: %zu/%zu seeds ok\n", results.size() - bad,
              results.size());
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse(argc, argv);
  if (!a.out_file.empty() &&
      std::freopen(a.out_file.c_str(), "w", stdout) == nullptr) {
    std::fprintf(stderr, "camsim: cannot open %s\n", a.out_file.c_str());
    return 2;
  }
  // These three start from a member, so an empty population is an input
  // error; the other subcommands report on an empty one.
  if (a.n == 0 && (a.command == "lookup" || a.command == "churn" ||
                   a.command == "stream")) {
    usage(a.command + " needs --n of at least 1");
  }
  if (a.command == "multicast") return cmd_multicast(a);
  if (a.command == "lookup") return cmd_lookup(a);
  if (a.command == "churn") return cmd_churn(a);
  if (a.command == "stream") return cmd_stream(a);
  if (a.command == "async") return cmd_async(a);
  if (a.command == "chaos") return cmd_chaos(a);
  if (a.command == "groups") return cmd_groups(a);
  usage("unknown subcommand '" + a.command + "'");
}
