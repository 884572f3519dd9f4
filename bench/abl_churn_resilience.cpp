// Ablation A3 — resilience under churn (protocol mode): fraction of the
// group still reached by a multicast right after a batch of abrupt
// failures, before and after repair rounds.
//
// Section 2's claim: "If node capacities are small, CAM-Koorde is not
// resilient against frequent membership changes ... CAM-Chord is a
// better choice in such an environment because of denser connectivity."
// The table reports delivery ratios for both systems at small and large
// capacities, failure fractions 5-30%.
// A second table repeats the experiment in full async protocol mode
// through the fault-injection harness (src/fault): scripted crash waves
// plus message loss while a multicast runs, then heal + re-stabilize
// and verify every protocol invariant — resilience measured end to end
// rather than against oracle-repaired tables.
#include <iostream>
#include <utility>
#include <vector>

#include "camchord/net.h"
#include "camkoorde/net.h"
#include "experiments/figures.h"
#include "experiments/table.h"
#include "fault/chaos_run.h"
#include "runtime/sweep_pool.h"
#include "util/rng.h"
#include "workload/churn.h"

namespace {

using namespace cam;

struct Result {
  double before_repair = 0;   // delivery ratio immediately after failures
  double after_repair = 0;    // after converge()
  double lookup_ok = 0;       // correct-owner rate before repair
};

// Correct-owner rate of 200 lookups against ground truth.
double lookup_success(RingOverlayNet& overlay, Rng& rng) {
  NodeDirectory truth(overlay.ring());
  for (Id id : overlay.members_sorted()) truth.add(id, overlay.info(id));
  int ok = 0;
  for (int i = 0; i < 200; ++i) {
    Id from = truth.random_node(rng);
    Id k = rng.next_below(overlay.ring().size());
    LookupResult r = overlay.lookup(from, k);
    if (r.ok && r.owner == *truth.responsible(k)) ++ok;
  }
  return ok / 200.0;
}

template <typename Net>
Result run(std::size_t n, std::uint32_t cap_lo, std::uint32_t cap_hi,
           double fail_fraction, std::uint64_t seed) {
  RingSpace ring(19);
  Simulator sim;
  ConstantLatency lat(1.0);
  Network net(sim, lat);
  Net overlay(ring, net);
  Rng rng(seed);

  auto info = [&] {
    return NodeInfo{static_cast<std::uint32_t>(rng.uniform(cap_lo, cap_hi)),
                    400 + rng.next_double() * 600};
  };
  overlay.bootstrap(rng.next_below(ring.size()), info());
  while (overlay.size() < n) {
    Id id = rng.next_below(ring.size());
    if (overlay.contains(id)) continue;
    auto members = overlay.members_sorted();
    (void)overlay.join(id, info(), members[rng.next_below(members.size())]);
  }
  overlay.oracle_fill();  // converged starting point

  workload::fail_random_fraction(overlay, fail_fraction, rng);

  Result res;
  {
    auto members = overlay.members_sorted();
    Id source = members[rng.next_below(members.size())];
    MulticastTree tree = overlay.multicast(source);
    res.before_repair = static_cast<double>(tree.size()) /
                        static_cast<double>(overlay.size());
    res.lookup_ok = lookup_success(overlay, rng);
  }
  overlay.converge();
  {
    auto members = overlay.members_sorted();
    Id source = members[rng.next_below(members.size())];
    MulticastTree tree = overlay.multicast(source);
    res.after_repair = static_cast<double>(tree.size()) /
                       static_cast<double>(overlay.size());
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cam::exp;
  FigureScale scale = parse_scale(argc, argv, FigureScale{.n = 600});

  std::cout << "# Ablation A3: delivery ratio under abrupt failures "
               "(protocol mode, n=" << scale.n << ")\n";
  Table t({"system", "capacity", "fail_frac", "before_repair",
           "after_repair", "lookup_ok"});
  struct Cfg {
    const char* name;
    std::uint32_t lo, hi;
    double frac;
  };
  // The declarative (capacity × failure-fraction) grid; each cell grows
  // its own pair of overlays on a ShardTeam lane (runtime::for_each_cell),
  // rows land in grid order.
  std::vector<Cfg> grid;
  for (Cfg cap : {Cfg{"small[4..6]", 4, 6, 0},
                  Cfg{"large[16..24]", 16, 24, 0}}) {
    for (double frac : {0.05, 0.15, 0.30}) {
      cap.frac = frac;
      grid.push_back(cap);
    }
  }
  auto results = cam::runtime::map_ordered(
      grid.size(), scale.jobs, [&](std::size_t i) {
        const Cfg& cfg = grid[i];
        return std::pair{
            run<cam::camchord::CamChordNet>(scale.n, cfg.lo, cfg.hi,
                                            cfg.frac, scale.seed),
            run<cam::camkoorde::CamKoordeNet>(scale.n, cfg.lo, cfg.hi,
                                              cfg.frac, scale.seed)};
      });
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Cfg& cfg = grid[i];
    const auto& [chord, koorde] = results[i];
    t.add_row({"CAM-Chord", cfg.name, fmt(cfg.frac, 2),
               fmt(chord.before_repair, 3), fmt(chord.after_repair, 3),
               fmt(chord.lookup_ok, 3)});
    t.add_row({"CAM-Koorde", cfg.name, fmt(cfg.frac, 2),
               fmt(koorde.before_repair, 3), fmt(koorde.after_repair, 3),
               fmt(koorde.lookup_ok, 3)});
  }
  t.print(std::cout);

  // --- async chaos section (fault-injection harness) -------------------
  // Small overlays: each run grows the ring, crashes a fraction abruptly
  // while drop faults are live, multicasts mid-chaos, then heals and
  // sweeps the invariants. Every (system, fraction) cell runs TWICE from
  // the same seed and plan — once with the delivery-repair layer off,
  // once on. `mid_*` is the tree-snapshot delivery ratio of the faulted
  // multicast; `evt_*` is the eventual ratio over still-live fire-time
  // members after quiescence. Repair-off leaves the orphaned regions
  // lost (evt_off < 1); repair-on recovers them (evt_on = 1).
  std::cout << "\n# Async chaos: delivery under scripted crash waves + "
               "5% drop (n=24, src/fault harness, repair off vs on)\n";
  Table ct({"system", "fail_frac", "mid_off", "evt_off", "mid_on", "evt_on",
            "invariants"});
  std::size_t chaos_n = 24;
  // Declarative chaos grid: [system][frac] × {repair off, repair on} =
  // 12 independent worlds, all dispatched through run_chaos_cells so
  // --jobs parallelizes them without changing a byte of the table.
  std::vector<cam::fault::ChaosCell> chaos_cells;
  std::vector<double> cell_frac;  // fail fraction of cells 2i and 2i+1
  for (const char* system : {"camchord", "camkoorde"}) {
    for (double frac : {0.05, 0.15, 0.30}) {
      cell_frac.push_back(frac);
      int wave = std::max(1, static_cast<int>(chaos_n * frac));
      cam::fault::ChaosCell cell;
      cell.plan.drop(0, 0.05).crash(1'000, wave).clear(6'000);
      cell.cfg.system = system;
      cell.cfg.n = chaos_n;
      cell.cfg.bits = 10;
      cell.cfg.seed = scale.seed;
      cell.cfg.mid_multicasts = 1;
      cell.cfg.async.repair = false;
      chaos_cells.push_back(cell);
      cell.cfg.async.repair = true;
      chaos_cells.push_back(std::move(cell));
    }
  }
  auto reports = cam::fault::run_chaos_cells(chaos_cells, scale.jobs);
  auto mid = [](const cam::fault::ChaosReport& r) {
    return r.multicasts.empty() ? 0 : r.multicasts.front().delivery_ratio();
  };
  auto evt = [](const cam::fault::ChaosReport& r) {
    return r.multicasts.empty() ? 0 : r.multicasts.front().eventual_ratio();
  };
  for (std::size_t i = 0; i < reports.size(); i += 2) {
    const cam::fault::ChaosReport& off = reports[i];
    const cam::fault::ChaosReport& on = reports[i + 1];
    // The repair-off run reports mcast.eventual violations by design;
    // the invariant verdict that matters is the repair-on run's.
    ct.add_row({off.cfg.system, fmt(cell_frac[i / 2], 2), fmt(mid(off), 3),
                fmt(evt(off), 3), fmt(mid(on), 3), fmt(evt(on), 3),
                on.ok ? "ok" : "VIOLATED"});
  }
  ct.print(std::cout);
  return 0;
}
