// run_session_chaos: one seeded end-to-end many-group chaos experiment.
//
// Where run_chaos stresses the async protocol stack with message faults,
// this harness stresses the SESSION layer with membership chaos: expand
// a WorkloadPlan (zipf group fleet, flash crowds, diurnal churn,
// regional failure bursts) into an event script, replay it against a
// SessionLayer, and sweep the group-level invariants as it goes —
// per-group tree consistency against the shared CapacityLedger, no node
// oversubscribed, membership views convergent. After the script, the
// surviving groups stream through the MultiGroupForwarder and every
// delivery is checked for cross-group exactly-once and completeness.
//
// The whole run is a deterministic function of (config, plan): render()
// is byte-identical across repeats with the same inputs, so a failing
// seed IS the reproduction recipe (the property tests/session_chaos_test
// sweeps across 64+ seeds).
//
// Detection mode (cfg.detect, ISSUE 8): workload crashes are no longer
// announced by the oracle. Each victim keeps its place in every tree
// until the first live watcher's adaptive suspicion window closes — the
// same session::FailureDetector the live stack drives through the
// proto::DepthFeed heartbeat piggyback, replayed here against the
// deterministic HeartbeatSchedule timetable — and only then does the
// layer run failover surgery (standby re-hang, full placement, park).
// The harness times crash -> announce and crash -> reattached into
// histograms, tracks the degraded-time fraction, and can additionally
// crash one interior member mid-stream, driving the dataplane's
// FailoverScript (prunes at per-watcher detection instants, reattaches
// with pull gap-repair at announce + control cost) from the same
// detector arithmetic. Detector-off runs are byte-identical to PR 7.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/invariants.h"
#include "session/apply.h"
#include "session/multi_forwarder.h"
#include "session/session.h"
#include "telemetry/metrics.h"
#include "workload/session_workload.h"

namespace cam::fault {

struct SessionChaosConfig {
  std::string system = "camchord";  // "camchord" | "camkoorde"
  std::size_t n = 64;               // overlay population
  int bits = 12;                    // ring identifier bits
  std::uint64_t seed = 1;           // population + workload seed
  double bw_lo_kbps = 400;          // paper Section 6 bandwidth range
  double bw_hi_kbps = 1000;
  std::uint32_t cap_lo = 4;         // uniform capacity range
  std::uint32_t cap_hi = 10;
  /// Groups streamed through the dataplane after the script (ascending
  /// group id, only groups with at least one receiver).
  std::size_t stream_groups = 4;
  std::uint32_t stream_packets = 16;
  session::SchedMode mode = session::SchedMode::kShared;

  // --- detection-driven failover (ISSUE 8; all ignored when !detect) ---
  /// Crashes are discovered by the heartbeat failure detector instead of
  /// applied the instant the script says they happened.
  bool detect = false;
  /// Failover policy while detecting: standby parents and parked
  /// subtrees (session::FailoverPolicy).
  bool standby = true;
  bool park = true;
  /// Heartbeat cadence driving the detector.
  double hb_period_ms = 2.0;
  /// Also crash the deepest interior member of the largest streamed
  /// group kStreamCrashMs into the stream, with detector-derived
  /// prune/reattach times feeding the dataplane FailoverScript.
  bool stream_crash = false;
};

/// When the mid-stream crash (SessionChaosConfig::stream_crash) hits.
inline constexpr SimTime kStreamCrashMs = 40;

struct SessionChaosReport {
  bool ok = false;  // no invariant violations anywhere in the run
  SessionChaosConfig cfg;
  std::string plan_text;              // canonical workload DSL
  std::vector<Violation> violations;  // aggregated, in detection order
  session::ApplyStats apply;
  session::SessionCounters counters;
  std::size_t events = 0;       // script length
  std::size_t groups = 0;       // live groups at the end
  std::size_t memberships = 0;  // sum of final group sizes
  double max_utilization = 0;   // deepest ledger fill observed at the end
  // Streaming scoreboard.
  std::size_t streamed = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t copies_expected = 0;
  std::uint64_t dup_copies = 0;  // exactly-once: must be 0

  // Detection-mode recovery scoreboard (all zero when !cfg.detect).
  std::size_t crash_victims = 0;     // workload crashes replayed
  std::size_t detected_crashes = 0;  // victims with a live watcher
  telemetry::Histogram detect_latency;    // crash -> announce, ms
  telemetry::Histogram reattach_latency;  // crash -> re-hung/readmitted
  double degraded_frac = 0;   // fraction of script time with parked > 0
  std::size_t peak_parked = 0;        // worst total parked member count
  std::size_t failover_trace_events = 0;  // kFailover* events recorded
  // Mid-stream detected crash (cfg.detect && cfg.stream_crash).
  bool stream_crashed = false;        // an eligible victim existed
  Id stream_victim = 0;
  SimTime stream_announce_ms = 0;     // first-watcher announce instant
  std::uint64_t stream_reattaches = 0;
  std::uint64_t stream_repaired = 0;  // pull-repair copies enqueued
  std::uint64_t stream_gap_total = 0;
  std::uint64_t stream_gap_max = 0;
  std::uint64_t stream_zombie_lost = 0;
  std::uint64_t stream_copies_lost = 0;
  std::uint64_t stream_suppressed = 0;  // bitmap-suppressed relays

  /// The full deterministic report (same run inputs ⇒ same bytes).
  std::string render() const;
};

/// Runs one session chaos experiment; report.ok iff no violations.
SessionChaosReport run_session_chaos(const SessionChaosConfig& cfg,
                                     const workload::WorkloadPlan& plan);

/// One cell of a session chaos sweep. Cells share no state.
struct SessionChaosCell {
  SessionChaosConfig cfg;
  workload::WorkloadPlan plan;
};

/// Runs cells through runtime::map_ordered() (0 jobs = hardware
/// concurrency); reports — and the concatenation of their render()
/// outputs — are byte-identical to a serial jobs = 1 sweep.
std::vector<SessionChaosReport> run_session_chaos_cells(
    const std::vector<SessionChaosCell>& cells, std::size_t jobs = 1);

/// The tests' stock plan: a zipf fleet, one flash crowd, a diurnal
/// churn window, and a regional failure burst. (`camsim groups --chaos`
/// builds its own plan from --ngroups and --group-max.)
workload::WorkloadPlan default_session_workload();

}  // namespace cam::fault
