// Failure detection for the session layer: phi-accrual-lite suspicion
// over heartbeat inter-arrival statistics.
//
// Every tree edge of every group is a watch relationship: the child
// heartbeats its parent through proto::DepthFeed (the PR 7 piggyback
// channel), and the parent returns data/acks at the same cadence, so
// both endpoints observe a heartbeat stream from the other. The
// detector keeps one EWMA of the inter-arrival mean and one Jacobson
// deviation estimate per directed (watcher, peer) edge; an edge is
// suspected once the peer has been silent for kDetectorStrikes
// consecutive adaptive windows of
//
//     timeout = max(kDetectorFloorMs, mean + k * dev)
//
// — the phi-accrual idea (Hayashibara et al.) with the accrual curve
// collapsed to a mean + k*sigma threshold, which is all a simulated
// deterministic overlay needs. A heartbeat absolves the edge and
// re-opens its windows; suspicion is latched so sweep() reports each
// suspected edge exactly once until it is absolved or untracked.
//
// Everything is a pure function of the heartbeat times fed in:
// identical schedules yield identical suspicion times, which is what
// lets run_session_chaos replay detection-mode failovers byte-for-byte.
// HeartbeatSchedule provides the deterministic schedule: per-edge
// arrivals jittered around the nominal period by a splitmix64 hash of
// (seed, watcher, peer, index) — never by consumption-order RNG, so the
// schedule is independent of event processing order.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/depth_feed.h"
#include "sim/simulator.h"
#include "util/flat_table.h"

namespace cam::session {

/// Adaptive timeout lower bound.
inline constexpr double kDetectorFloorMs = 0.5;
/// Silent windows before suspicion.
inline constexpr std::uint32_t kDetectorStrikes = 2;

class FailureDetector final : public proto::HeartbeatObserver {
 public:
  /// `expected_period_ms` is the nominal heartbeat period; it seeds a
  /// fresh edge's mean.
  explicit FailureDetector(double expected_period_ms = 2.0)
      : expected_period_ms_(expected_period_ms) {}

  /// Starts watching `peer` from `watcher` as of `now`. A fresh edge is
  /// seeded with the expected period (mean) and a quarter period of
  /// deviation, so its first windows are neither hair-trigger nor deaf.
  /// Idempotent: re-tracking an existing edge is a no-op.
  void track(Id watcher, Id peer, SimTime now);
  /// Stops watching (drops the edge's statistics). No-op if untracked.
  void untrack(Id watcher, Id peer);
  bool tracks(Id watcher, Id peer) const;
  std::size_t tracked_edges() const { return edge_count_; }

  /// One delivered heartbeat on the edge: folds the inter-arrival into
  /// the EWMA/deviation pair and absolves any latched suspicion.
  void heartbeat(Id watcher, Id peer, SimTime now);

  /// proto::HeartbeatObserver — a DepthFeed heartbeat child -> parent is
  /// the parent's evidence that the child is alive.
  void on_heartbeat(Id parent, Id child, SimTime now) override {
    if (tracks(parent, child)) heartbeat(parent, child, now);
  }

  /// The edge's current adaptive window.
  double timeout_ms(Id watcher, Id peer) const;
  /// Virtual time at which the edge becomes suspect if the peer stays
  /// silent: last heartbeat + kDetectorStrikes * timeout.
  SimTime suspect_deadline(Id watcher, Id peer) const;

  struct Suspicion {
    Id watcher = 0;
    Id peer = 0;
    SimTime deadline_ms = 0;  // when the last strike window closed
  };
  /// Edges whose deadline has passed at `now`, sorted (watcher, peer).
  /// Latched: an edge reported once stays silent in later sweeps until
  /// a heartbeat absolves it.
  std::vector<Suspicion> sweep(SimTime now);

 private:
  struct Edge {
    SimTime last_ms = 0;  // last heartbeat (or track time)
    double mean_ms = 0;
    double dev_ms = 0;
    bool suspected = false;
  };

  const Edge* find(Id watcher, Id peer) const;
  /// One adaptive window: max(kDetectorFloorMs, mean + k * dev).
  static double window_ms(const Edge& e);

  double expected_period_ms_;
  FlatMap<Id, FlatMap<Id, Edge>> edges_;  // watcher -> peer -> stats
  std::size_t edge_count_ = 0;
};

/// Deterministic heartbeat timetable: the i-th arrival on edge
/// (watcher, peer) lands at
///
///     start + (i+1) * period + period * jitter * (u - 0.5)
///
/// with u in [0,1) a splitmix64 hash of (seed, watcher, peer, i).
/// Jitter below 1.0 keeps arrivals strictly monotonic per edge. The
/// schedule is a pure function — no RNG state, so edges can be replayed
/// lazily in any order.
class HeartbeatSchedule {
 public:
  HeartbeatSchedule(std::uint64_t seed, double period_ms,
                    double jitter_frac = 0.5)
      : seed_(seed), period_ms_(period_ms), jitter_(jitter_frac) {}

  double period_ms() const { return period_ms_; }

  /// Offset of the index-th arrival from the edge's track time.
  SimTime arrival_offset(Id watcher, Id peer, std::uint64_t index) const;

  /// Hash-uniform u in [0,1) for (watcher, peer, salt) — also used by
  /// the chaos harness to derive per-watcher detection spreads without
  /// touching consumption-order RNG.
  double hash_uniform(Id watcher, Id peer, std::uint64_t salt) const;

 private:
  std::uint64_t seed_;
  double period_ms_;
  double jitter_;
};

}  // namespace cam::session
