// Ablation A14 — oracle-announced vs detection-driven failover.
//
// The session chaos harness replays the same regional-burst workload
// three ways over one overlay population:
//
//   oracle          crashes applied the instant the script says they
//                   happened (the PR 7 semantics): no detection delay,
//                   no standby machinery — the lower bound on recovery.
//   detect-full     crashes discovered by the heartbeat failure
//                   detector; every orphan re-hangs through a full
//                   locating placement ((hops+1) control RTTs).
//   detect-standby  detection as above, but orphans first try their
//                   join-time standby parent (one control RTT) and only
//                   fall back to placement when the soft reservation
//                   went stale.
//
// Every detected arm also crashes the deepest interior member of the
// largest streamed group mid-stream, so the reattach cost difference
// shows up as delivery-gap sizes in the data plane, not just control
// latency. Rows are deterministic in (system, arm, seed). Two gates per
// system, each failure one stderr line and exit 1 (stdout is the same
// either way): standby failover beats full re-placement on median
// detect->reattach latency and does no worse on median delivery gaps.
// --json emits the rows (tests/golden/cli/abl_failover.txt pins them).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "fault/session_chaos.h"
#include "runtime/flags.h"
#include "workload/session_workload.h"

namespace {

/// The median, averaging the middle pair of an even count; 0 when empty.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cam;

  bool json = false;
  std::size_t jobs = 4;
  std::size_t seeds = 8;
  std::size_t n = 128;
  runtime::FlagSet flags;
  flags.add_switch("json", "emit rows as JSON", &json);
  flags.add("jobs", "sweep workers (0 = all cores)", &jobs);
  flags.add("seeds", "seeds per (system, arm)", &seeds);
  flags.add("n", "overlay population", &n, std::size_t{1});
  std::string error;
  if (!flags.parse(argc, argv, 1, &error)) {
    std::fprintf(stderr, "abl_failover: %s\nflags:\n%s", error.c_str(),
                 flags.usage().c_str());
    return 2;
  }

  // Regional-burst workload: a zipf fleet with churn and two correlated
  // failure bursts in different ring neighborhoods.
  const auto plan = workload::WorkloadPlan::parse(
      "groups n=8 alpha=1 min=2 max=16\n"
      "flash group=1 at=10 joins=8 spacing=2\n"
      "diurnal start=20 end=200 period=80 amp=0.5 join=0.05 leave=0.03\n"
      "regionfail at=120 center=0 radius=0.12 n=3\n"
      "regionfail at=200 center=2048 radius=0.12 n=3\n");
  if (!plan.has_value()) {
    std::fprintf(stderr, "abl_failover: workload plan failed to parse\n");
    return 1;
  }

  struct Arm {
    const char* name;
    bool detect;
    bool standby;
  };
  const Arm arms[] = {{"oracle", false, false},
                      {"detect-full", true, false},
                      {"detect-standby", true, true}};
  const char* systems[] = {"camchord", "camkoorde"};

  std::vector<fault::SessionChaosCell> cells;
  for (const char* system : systems) {
    for (const Arm& arm : arms) {
      for (std::size_t s = 1; s <= seeds; ++s) {
        fault::SessionChaosCell cell;
        cell.cfg.system = system;
        cell.cfg.n = n;
        cell.cfg.seed = s;
        cell.cfg.bw_lo_kbps = 4000;  // fast uplinks: recovery latency,
        cell.cfg.bw_hi_kbps = 10000;  // not serialization, dominates
        cell.cfg.stream_packets = 64;
        cell.cfg.detect = arm.detect;
        cell.cfg.standby = arm.standby;
        cell.cfg.stream_crash = arm.detect;
        cell.plan = *plan;
        cells.push_back(cell);
      }
    }
  }
  const std::vector<fault::SessionChaosReport> reports =
      fault::run_session_chaos_cells(cells, jobs);

  // Hard invariants: every cell clean, exactly-once everywhere.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const fault::SessionChaosReport& r = reports[i];
    if (!r.ok || r.dup_copies != 0) {
      std::fprintf(stderr,
                   "abl_failover: INVARIANT VIOLATION in cell %zu "
                   "(%s seed %llu): ok=%d dups=%llu\n",
                   i, cells[i].cfg.system.c_str(),
                   static_cast<unsigned long long>(cells[i].cfg.seed),
                   r.ok ? 1 : 0,
                   static_cast<unsigned long long>(r.dup_copies));
      return 1;
    }
  }

  auto arm_of = [&](std::size_t i) {
    return arms[(i / seeds) % (sizeof(arms) / sizeof(arms[0]))];
  };

  // The gates, per system, over the seeds of its two detected arms. The
  // latency median counts only cells that re-attached something: a burst
  // that hits only leaves or sources would drag it to zero.
  bool gates_ok = true;
  for (std::size_t i = 0; i < reports.size(); i += 3 * seeds) {
    std::vector<double> reattach[2], gaps[2];  // detect-full, detect-standby
    for (std::size_t k = 0; k < 2 * seeds; ++k) {
      const fault::SessionChaosReport& r = reports[i + seeds + k];
      if (r.reattach_latency.count() > 0) {
        reattach[k / seeds].push_back(r.reattach_latency.quantile(0.5));
      }
      gaps[k / seeds].push_back(static_cast<double>(r.stream_gap_total));
    }
    const double full_ms = median(reattach[0]),
                 standby_ms = median(reattach[1]);
    const double full_gaps = median(gaps[0]), standby_gaps = median(gaps[1]);
    const char* system = cells[i].cfg.system.c_str();
    if (!(standby_ms < full_ms)) {
      std::fprintf(stderr,
                   "abl_failover: GATE FAILURE: %s standby_reattach_faster: "
                   "standby %.3f ms vs full %.3f ms\n",
                   system, standby_ms, full_ms);
      gates_ok = false;
    }
    if (standby_gaps > full_gaps) {
      std::fprintf(stderr,
                   "abl_failover: GATE FAILURE: %s standby_gaps_no_worse: "
                   "standby %.1f vs full %.1f\n",
                   system, standby_gaps, full_gaps);
      gates_ok = false;
    }
  }

  if (json) {
    std::cout << "{\"rows\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const fault::SessionChaosReport& r = reports[i];
      if (i > 0) std::cout << ",";
      std::cout << "{\"system\":\"" << cells[i].cfg.system
                << "\",\"arm\":\"" << arm_of(i).name
                << "\",\"seed\":" << cells[i].cfg.seed
                << ",\"crashes\":" << r.crash_victims
                << ",\"detected\":" << r.detected_crashes
                << ",\"detect_p50_ms\":" << r.detect_latency.quantile(0.5)
                << ",\"detect_max_ms\":" << r.detect_latency.max()
                << ",\"reattach_p50_ms\":"
                << r.reattach_latency.quantile(0.5)
                << ",\"reattach_max_ms\":" << r.reattach_latency.max()
                << ",\"reattach_samples\":" << r.reattach_latency.count()
                << ",\"reattach_standby\":" << r.counters.reattach_standby
                << ",\"reattach_full\":" << r.counters.reattach_full
                << ",\"parked\":" << r.counters.parked_subtrees
                << ",\"readmitted\":" << r.counters.readmitted_subtrees
                << ",\"dropped\":" << r.counters.dropped_members
                << ",\"degraded_frac\":" << r.degraded_frac
                << ",\"stream_gap_total\":" << r.stream_gap_total
                << ",\"stream_gap_max\":" << r.stream_gap_max
                << ",\"stream_repaired\":" << r.stream_repaired
                << ",\"delivered\":" << r.copies_delivered
                << ",\"expected\":" << r.copies_expected << "}";
    }
    std::cout << "]}\n";
    return gates_ok ? 0 : 1;
  }

  std::printf(
      "# Ablation A14: oracle vs detected failover (n=%zu, %zu seeds, "
      "regional bursts, 64-packet streams)\n"
      "%-10s %-15s %9s %12s %13s %8s %6s %8s %8s\n",
      n, seeds, "system", "arm", "detect_p50", "reattach_p50", "standby/full",
      "gaps", "drops", "deg_frac", "deliv");
  for (std::size_t i = 0; i < reports.size(); i += seeds) {
    // Aggregate each (system, arm) over its seed block.
    double dsum = 0, rsum = 0, gsum = 0, degsum = 0;
    std::uint64_t sb = 0, full = 0, drops = 0, deliv = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      const fault::SessionChaosReport& r = reports[i + s];
      dsum += r.detect_latency.quantile(0.5);
      rsum += r.reattach_latency.quantile(0.5);
      gsum += static_cast<double>(r.stream_gap_total);
      degsum += r.degraded_frac;
      sb += r.counters.reattach_standby;
      full += r.counters.reattach_full;
      drops += r.counters.dropped_members;
      deliv += r.copies_delivered;
    }
    const double k = static_cast<double>(seeds);
    std::printf("%-10s %-15s %9.3f %12.3f %7llu/%-5llu %8.1f %6llu %8.3f %8llu\n",
                cells[i].cfg.system.c_str(), arm_of(i).name, dsum / k,
                rsum / k, static_cast<unsigned long long>(sb),
                static_cast<unsigned long long>(full), gsum / k,
                static_cast<unsigned long long>(drops), degsum / k,
                static_cast<unsigned long long>(deliv));
  }
  return gates_ok ? 0 : 1;
}
