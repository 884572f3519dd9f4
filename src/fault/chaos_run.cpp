#include "fault/chaos_run.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "proto/async_camchord.h"
#include "proto/async_camkoorde.h"
#include "runtime/sweep_pool.h"
#include "strategy/strategy.h"
#include "telemetry/export.h"
#include "util/num_text.h"
#include "util/rng.h"

namespace cam::fault {

std::string ChaosMulticast::to_string() const {
  std::string out =
      "mc stream=" + std::to_string(stream) + " source=" +
      std::to_string(source) + " reached=" + std::to_string(reached) + "/" +
      std::to_string(live) + " dups=" + std::to_string(dups) +
      (while_faulted ? " (faulted)" : " (quiescent)");
  if (eligible > 0) {
    out += " eventual=" + std::to_string(eventually) + "/" +
           std::to_string(eligible);
  }
  return out;
}

std::string ChaosReport::render() const {
  std::ostringstream os;
  os << "chaos system=" << cfg.system << " n=" << cfg.n << " bits="
     << cfg.bits << " seed=" << cfg.seed << "\n";
  os << "plan:\n";
  {
    std::istringstream in(plan_text);
    for (std::string line; std::getline(in, line);) {
      os << "  " << line << "\n";
    }
  }
  for (const ChaosMulticast& m : multicasts) os << m.to_string() << "\n";
  os << "members=" << members << " consistency=" << format_g(consistency)
     << "\n";
  os << "faults: drops=" << drops << " dups=" << dups << " delays="
     << delays << "\n";
  if (trace_evictions > 0) {
    os << "warning: trace ring evicted " << trace_evictions
       << " events (dedupe check partial)\n";
  }
  os << "violations: " << violations.size() << "\n";
  for (const Violation& v : violations) os << "  " << v.to_string() << "\n";
  os << "journal: " << journal.size() << " entries\n";
  for (const std::string& line : journal) os << "  " << line << "\n";
  os << "counters:\n" << counters_csv;
  os << "result: " << (ok ? "OK" : "VIOLATIONS") << "\n";
  return os.str();
}

ChaosReport run_chaos(const ChaosConfig& cfg, const FaultPlan& plan) {
  ChaosReport report;
  report.cfg = cfg;
  report.plan_text = plan.to_string();

  RingSpace ring(cfg.bits);
  Simulator sim;
  UniformLatency lat(5, 25, cfg.seed ^ 0x5eed);
  Network net(sim, lat);
  proto::HostBus bus(net);

  // Declared before the overlay: the sink must outlive the host that
  // attaches to it (the overlay detaches from its destructor).
  telemetry::Registry reg;
  telemetry::Tracer tracer(
      std::max<std::size_t>(std::size_t{1} << 16, 1024 * cfg.n),
      telemetry::kMilestoneEvents);

  std::unique_ptr<proto::AsyncOverlayNet> overlay;
  if (cfg.system == "camchord") {
    overlay = std::make_unique<proto::AsyncCamChordNet>(ring, bus, cfg.async);
  } else if (cfg.system == "camkoorde") {
    overlay =
        std::make_unique<proto::AsyncCamKoordeNet>(ring, bus, cfg.async);
  } else {
    report.violations.push_back(
        {"config", 0,
         "no protocol-mode stack for strategy '" + cfg.system +
             "' (registered: " + strategy::registry().joined_names() + ")"});
    return report;
  }

  overlay->set_telemetry({&reg, &tracer});

  // --- grow to n and converge (fault-free) -----------------------------
  Rng rng(cfg.seed);
  auto info = [&] { return spawn_info(cfg.spawn, rng); };
  overlay->bootstrap(rng.next_below(ring.size()), info());
  overlay->run_for(500);
  while (overlay->size() < cfg.n) {
    std::size_t batch = std::min<std::size_t>(8, cfg.n - overlay->size());
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
  overlay->run_for(2 * proto::kEntryRefreshTargetMs + 4'000);

  InvariantChecker checker(*overlay);
  auto note_violations = [&](std::vector<Violation> v) {
    report.violations.insert(report.violations.end(),
                             std::make_move_iterator(v.begin()),
                             std::make_move_iterator(v.end()));
  };

  // Fire-time live membership per multicast: the population the
  // eventual-delivery sweep holds the repair layer accountable for.
  std::vector<std::vector<Id>> eligible_sets;
  auto checked_multicast = [&](bool expect_coverage) {
    auto members = overlay->members_sorted();
    if (members.empty()) return;
    Id source = members[rng.next_below(members.size())];
    MulticastTree tree = overlay->multicast(source);
    std::uint64_t stream = overlay->last_stream_id();
    report.multicasts.push_back(ChaosMulticast{
        stream, source, tree.size(), overlay->size(),
        tree.duplicate_deliveries(), !expect_coverage});
    eligible_sets.push_back(std::move(members));
    note_violations(checker.check_multicast_structure(tree));
    note_violations(checker.check_trace_dedupe(tracer.events(), stream));
    if (expect_coverage) {
      note_violations(checker.check_multicast_coverage(tree));
    }
  };

  // --- execute the plan, multicasting while faults are live ------------
  FaultInjector injector(*overlay, cfg.seed ^ 0xFA17, cfg.spawn);
  injector.load(plan);
  const SimTime start = sim.now();
  const SimTime plan_span = plan.duration() + cfg.tail_ms;
  for (int i = 0; i < cfg.mid_multicasts; ++i) {
    SimTime mark =
        start + plan_span * (i + 1) / (cfg.mid_multicasts + 1);
    if (sim.now() < mark) overlay->run_for(mark - sim.now());
    checked_multicast(/*expect_coverage=*/false);
  }
  if (sim.now() < start + plan_span) {
    overlay->run_for(start + plan_span - sim.now());
  }

  // --- heal, settle, and sweep the quiescent invariants ----------------
  if (cfg.force_quiescence) {
    injector.clear();
    SimTime budget = sim.now() + cfg.quiesce_budget_ms;
    while (sim.now() < budget && overlay->ring_consistency() < 1.0) {
      overlay->run_for(2'000);
    }
    overlay->run_for(2 * proto::kEntryRefreshTargetMs + 4'000);
    while (sim.now() < budget && !checker.check_quiescent().empty()) {
      overlay->run_for(5'000);
    }
    note_violations(checker.check_quiescent());
    // Repair phase: let anti-entropy finish filling multicast holes (it
    // spreads a ring hop per stabilize round). Stop as soon as the
    // missing count stalls — repair disabled, or a hole nothing can
    // fill — rather than burning the whole budget, which would push the
    // early streams into dedupe eviction and vacuous-pass the check.
    auto count_missing = [&] {
      std::size_t missing = 0;
      for (std::size_t i = 0; i < report.multicasts.size(); ++i) {
        missing += checker
                       .check_eventual_delivery(report.multicasts[i].stream,
                                                eligible_sets[i])
                       .size();
      }
      return missing;
    };
    std::size_t missing = count_missing();
    int stalled = 0;
    while (sim.now() < budget && missing > 0 && stalled < 4) {
      overlay->run_for(2'000);
      const std::size_t next = count_missing();
      stalled = next < missing ? 0 : stalled + 1;
      missing = next;
    }
    for (std::size_t i = 0; i < report.multicasts.size(); ++i) {
      ChaosMulticast& m = report.multicasts[i];
      m.eligible = 0;
      m.eventually = 0;
      for (Id id : eligible_sets[i]) {
        if (!overlay->running(id)) continue;
        ++m.eligible;
        if (overlay->node(id).seen_stream(m.stream)) ++m.eventually;
      }
      note_violations(
          checker.check_eventual_delivery(m.stream, eligible_sets[i]));
    }
    if (cfg.final_multicast) checked_multicast(/*expect_coverage=*/true);
  } else {
    note_violations(checker.check_quiescent());
  }

  report.journal = injector.journal();
  report.members = overlay->size();
  report.consistency = overlay->ring_consistency();
  report.drops = injector.dropped();
  report.dups = injector.duplicated();
  report.delays = injector.delayed();
  report.trace_evictions = tracer.dropped();
  std::ostringstream csv;
  telemetry::write_csv(reg, csv);
  report.counters_csv = csv.str();
  report.ok = report.violations.empty();
  return report;
}

std::vector<ChaosReport> run_chaos_cells(const std::vector<ChaosCell>& cells,
                                         std::size_t jobs) {
  return runtime::map_ordered(cells.size(), jobs, [&](std::size_t i) {
    return run_chaos(cells[i].cfg, cells[i].plan);
  });
}

FaultPlan default_chaos_plan() {
  FaultPlan plan;
  plan.drop(0, 0.05)
      .duplicate(0, 0.05, 1)
      .reorder(0, 0.2, 40)
      .crash(2'000, 2)
      .join(4'000, 2)
      .partition(6'000, 0.3)
      .heal(9'000)
      .restart(11'000, 1)
      .clear(14'000);
  return plan;
}

}  // namespace cam::fault
