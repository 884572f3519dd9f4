// FaultInjector: executes a FaultPlan against a live async overlay.
//
// The injector installs itself as the HostBus fault shaper and decides,
// per datagram, whether injected faults drop it, duplicate it, or
// stretch its delivery (extra delay / reorder). Partitions drop every
// datagram crossing the host-set cut; scripted churn crashes, restarts,
// and spawns nodes through the overlay harness. Every decision — both
// the control events applied from the plan and each per-message fault —
// is appended to a textual journal, so the *realized* fault schedule of
// a run is a byte-comparable artifact: same (plan, seed, workload) ⇒
// identical journal. Decisions are also emitted as telemetry (kFault*
// trace events and "fault.*" counters) so traces show exactly which
// fault ate which message.
//
// All randomness (which message drops, which hosts land on which
// partition side, which nodes churn, spawned capacities) comes from one
// RNG seeded in the constructor; nothing reads wall clock or container
// iteration order, so runs replay exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "proto/async_node.h"
#include "util/rng.h"

namespace cam::fault {

/// Capacity range for nodes the injector spawns (join and restart
/// waves).
struct SpawnProfile {
  std::uint32_t cap_lo = 4;
  std::uint32_t cap_hi = 10;
};

/// One spawned node's attributes: a uniform capacity in the profile's
/// range, then a uniform upload bandwidth in the paper's Section 6 range.
NodeInfo spawn_info(const SpawnProfile& profile, Rng& rng);

class FaultInjector {
 public:
  FaultInjector(proto::AsyncOverlayNet& overlay, std::uint64_t seed,
                SpawnProfile profile = {});
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every plan event on the simulator clock, relative to the
  /// current virtual time. Events fire even while the caller's run loop
  /// is doing other work; loading a second plan stacks on the first.
  void load(const FaultPlan& plan);

  /// Applies one event immediately (also used by load()'s timers).
  void apply(const FaultEvent& e);

  // --- link-level knobs (equivalent to the matching plan events) -------
  void set_drop(double p);
  void set_link_drop(Id from, Id to, double p);
  void set_duplicate(double p, int copies);
  void set_delay(double p, SimTime extra_ms);
  void set_reorder(double p, SimTime window_ms);
  /// Installs a partition with a random `frac` of live members on side
  /// A (at least one host per side).
  void partition_fraction(double frac);
  /// Installs a partition with an explicit side A. Hosts spawned during
  /// the partition land on side B implicitly.
  void partition_hosts(std::vector<Id> side_a);
  void heal();
  /// Resets every link-level fault, partition included.
  void clear();

  // --- scripted churn ---------------------------------------------------
  void crash_wave(int count);
  void restart_wave(int count);
  void join_wave(int count);
  /// Correlated regional crash: up to `count` live members within
  /// `radius` (fraction of the ring) of `center`, nearest first.
  void region_fail_wave(Id center, double radius, int count);

  bool partitioned() const { return partition_active_; }

  /// The realized fault schedule: one line per control event and per
  /// per-message fault decision, in execution order.
  const std::vector<std::string>& journal() const { return journal_; }

  std::uint64_t dropped() const { return drops_; }
  std::uint64_t duplicated() const { return dups_; }
  std::uint64_t delayed() const { return delays_; }

 private:
  void install_shaper();
  void shape(Id from, Id to, const proto::Message& msg, std::size_t bytes,
             MsgClass cls, std::vector<SimTime>& delays);
  void note(std::string line) { journal_.push_back(std::move(line)); }
  /// A fresh, never-used ring id.
  Id fresh_id();
  /// `count` distinct live members, rng-chosen (partial Fisher-Yates
  /// over the sorted member list, so the draw is deterministic).
  std::vector<Id> pick_live(int count);

  proto::AsyncOverlayNet& overlay_;
  Rng rng_;
  SpawnProfile profile_;

  double drop_p_ = 0;
  std::map<std::pair<Id, Id>, double> link_drop_;  // directed from->to
  double dup_p_ = 0;
  int dup_copies_ = 1;
  SimTime dup_spread_ms_ = 30;  // duplicate copies land within this window
  double delay_p_ = 0;
  SimTime delay_ms_ = 0;
  double reorder_p_ = 0;
  SimTime reorder_window_ms_ = 0;
  bool partition_active_ = false;
  std::set<Id> side_a_;

  std::uint64_t drops_ = 0;
  std::uint64_t dups_ = 0;
  std::uint64_t delays_ = 0;

  std::vector<std::string> journal_;
  /// Keeps scheduled plan closures from touching a destroyed injector.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace cam::fault
