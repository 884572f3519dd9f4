#include "fault/injector.h"

#include <algorithm>

#include "util/num_text.h"

namespace cam::fault {

namespace {

using telemetry::EventType;

// Upload bandwidth range of spawned nodes (paper Section 6).
constexpr double kSpawnBwLoKbps = 400;
constexpr double kSpawnBwHiKbps = 1000;

// Short payload-kind tag so the journal says which message a fault ate.
const char* msg_kind(const proto::Message& msg) {
  switch (msg.index()) {
    case 0: return "req";
    case 1: return "rep";
    case 2: return "notify";
    case 3: return "data";
  }
  return "?";
}

std::string link_str(Id from, Id to) {
  return std::to_string(from) + "->" + std::to_string(to);
}

}  // namespace

FaultInjector::FaultInjector(proto::AsyncOverlayNet& overlay,
                             std::uint64_t seed, SpawnProfile profile)
    : overlay_(overlay), rng_(seed), profile_(profile) {
  install_shaper();
}

FaultInjector::~FaultInjector() {
  *alive_ = false;
  overlay_.bus().set_shaper({});
}

void FaultInjector::install_shaper() {
  overlay_.bus().set_shaper(
      [this](Id from, Id to, const proto::Message& msg, std::size_t bytes,
             MsgClass cls, std::vector<SimTime>& delays) {
        shape(from, to, msg, bytes, cls, delays);
      });
}

void FaultInjector::shape(Id from, Id to, const proto::Message& msg,
                          std::size_t bytes, MsgClass cls,
                          std::vector<SimTime>& delays) {
  const telemetry::Sink& tel = overlay_.telemetry();
  const SimTime now = overlay_.sim().now();

  // Partition first: a datagram crossing the cut vanishes, whatever the
  // other knobs say.
  if (partition_active_ &&
      side_a_.contains(from) != side_a_.contains(to)) {
    ++drops_;
    note("t=" + format_g(now) + " drop(partition) " + msg_kind(msg) + " " +
         link_str(from, to));
    tel.trace(EventType::kFaultDrop, now, from, to, bytes,
              static_cast<std::uint64_t>(cls));
    tel.count("fault.drops");
    tel.count("fault.drops.partition");
    delays.clear();
    return;
  }

  // Per-link drop overrides the global probability.
  double p = drop_p_;
  if (auto it = link_drop_.find({from, to}); it != link_drop_.end()) {
    p = it->second;
  }
  if (p > 0 && rng_.chance(p)) {
    ++drops_;
    note("t=" + format_g(now) + " drop " + msg_kind(msg) + " " +
         link_str(from, to));
    tel.trace(EventType::kFaultDrop, now, from, to, bytes,
              static_cast<std::uint64_t>(cls));
    tel.count("fault.drops");
    delays.clear();
    return;
  }

  if (dup_p_ > 0 && rng_.chance(dup_p_)) {
    for (int i = 0; i < dup_copies_; ++i) {
      delays.push_back(rng_.next_double() * dup_spread_ms_);
    }
    ++dups_;
    note("t=" + format_g(now) + " dup " + msg_kind(msg) + " " +
         link_str(from, to) + " copies=" + std::to_string(dup_copies_));
    tel.trace(EventType::kFaultDuplicate, now, from, to,
              static_cast<std::uint64_t>(dup_copies_),
              static_cast<std::uint64_t>(cls));
    tel.count("fault.dups");
  }

  SimTime extra = 0;
  if (delay_p_ > 0 && rng_.chance(delay_p_)) extra += delay_ms_;
  if (reorder_p_ > 0 && rng_.chance(reorder_p_)) {
    extra += rng_.next_double() * reorder_window_ms_;
  }
  if (extra > 0) {
    delays.front() += extra;
    ++delays_;
    note("t=" + format_g(now) + " stretch " + msg_kind(msg) + " " +
         link_str(from, to) + " ms=" + format_g(extra));
    tel.trace(EventType::kFaultDelay, now, from, to,
              static_cast<std::uint64_t>(extra),
              static_cast<std::uint64_t>(cls));
    tel.count("fault.delays");
  }
}

void FaultInjector::load(const FaultPlan& plan) {
  Simulator& sim = overlay_.sim();
  const SimTime base = sim.now();
  for (const FaultEvent& e : plan.events()) {
    sim.at(base + e.at_ms, [this, alive = alive_, e] {
      if (*alive) apply(e);
    });
  }
}

void FaultInjector::apply(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kDrop:
      if (e.has_link) {
        set_link_drop(e.a, e.b, e.p);
      } else {
        set_drop(e.p);
      }
      return;
    case FaultKind::kDuplicate:
      set_duplicate(e.p, e.count);
      return;
    case FaultKind::kDelay:
      set_delay(e.p, e.ms);
      return;
    case FaultKind::kReorder:
      set_reorder(e.p, e.ms);
      return;
    case FaultKind::kPartition:
      if (!e.hosts.empty()) {
        partition_hosts(e.hosts);
      } else {
        partition_fraction(e.frac);
      }
      return;
    case FaultKind::kHeal:
      heal();
      return;
    case FaultKind::kCrash:
      crash_wave(e.count);
      return;
    case FaultKind::kRestart:
      restart_wave(e.count);
      return;
    case FaultKind::kJoin:
      join_wave(e.count);
      return;
    case FaultKind::kRegionFail:
      region_fail_wave(e.a, e.radius, e.count);
      return;
    case FaultKind::kClear:
      clear();
      return;
  }
}

void FaultInjector::set_drop(double p) {
  drop_p_ = p;
  note("t=" + format_g(overlay_.sim().now()) + " set drop p=" + format_g(p));
}

void FaultInjector::set_link_drop(Id from, Id to, double p) {
  if (p <= 0) {
    link_drop_.erase({from, to});
  } else {
    link_drop_[{from, to}] = p;
  }
  note("t=" + format_g(overlay_.sim().now()) + " set drop p=" + format_g(p) +
       " link=" + link_str(from, to));
}

void FaultInjector::set_duplicate(double p, int copies) {
  dup_p_ = p;
  dup_copies_ = std::max(copies, 1);
  note("t=" + format_g(overlay_.sim().now()) + " set dup p=" + format_g(p) +
       " copies=" + std::to_string(dup_copies_));
}

void FaultInjector::set_delay(double p, SimTime extra_ms) {
  delay_p_ = p;
  delay_ms_ = extra_ms;
  note("t=" + format_g(overlay_.sim().now()) + " set delay p=" + format_g(p) +
       " ms=" + format_g(extra_ms));
}

void FaultInjector::set_reorder(double p, SimTime window_ms) {
  reorder_p_ = p;
  reorder_window_ms_ = window_ms;
  note("t=" + format_g(overlay_.sim().now()) + " set reorder p=" + format_g(p) +
       " ms=" + format_g(window_ms));
}

void FaultInjector::partition_fraction(double frac) {
  std::vector<Id> live = overlay_.members_sorted();
  if (live.size() < 2) {
    note("t=" + format_g(overlay_.sim().now()) + " partition skipped (size<2)");
    return;
  }
  auto side = static_cast<std::size_t>(
      static_cast<double>(live.size()) * frac);
  side = std::clamp<std::size_t>(side, 1, live.size() - 1);
  // Partial Fisher-Yates over the sorted list: deterministic subset.
  for (std::size_t i = 0; i < side; ++i) {
    std::size_t j = i + rng_.next_below(live.size() - i);
    std::swap(live[i], live[j]);
  }
  live.resize(side);
  partition_hosts(std::move(live));
}

void FaultInjector::partition_hosts(std::vector<Id> side_a) {
  partition_active_ = true;
  side_a_ = std::set<Id>(side_a.begin(), side_a.end());
  const std::size_t live = overlay_.size();
  const std::size_t b_side = live > side_a_.size() ? live - side_a_.size() : 0;
  std::string ids;
  for (Id id : side_a_) {
    if (!ids.empty()) ids += ",";
    ids += std::to_string(id);
  }
  const SimTime now = overlay_.sim().now();
  note("t=" + format_g(now) + " partition sideA=[" + ids + "] sideB=" +
       std::to_string(b_side));
  overlay_.telemetry().trace(EventType::kFaultPartition, now, 0, 0,
                             side_a_.size(), b_side);
  overlay_.telemetry().count("fault.partitions");
}

void FaultInjector::heal() {
  const SimTime now = overlay_.sim().now();
  if (partition_active_) {
    overlay_.telemetry().trace(EventType::kFaultHeal, now, 0);
    overlay_.telemetry().count("fault.heals");
  }
  partition_active_ = false;
  side_a_.clear();
  note("t=" + format_g(now) + " heal");
}

void FaultInjector::clear() {
  heal();
  drop_p_ = 0;
  link_drop_.clear();
  dup_p_ = 0;
  delay_p_ = 0;
  reorder_p_ = 0;
  note("t=" + format_g(overlay_.sim().now()) + " clear");
}

Id FaultInjector::fresh_id() {
  const std::uint64_t space = overlay_.ring().size();
  for (;;) {
    Id id = rng_.next_below(space);
    if (!overlay_.known(id)) return id;
  }
}

std::vector<Id> FaultInjector::pick_live(int count) {
  std::vector<Id> live = overlay_.members_sorted();
  auto take = std::min<std::size_t>(static_cast<std::size_t>(count),
                                    live.size());
  for (std::size_t i = 0; i < take; ++i) {
    std::size_t j = i + rng_.next_below(live.size() - i);
    std::swap(live[i], live[j]);
  }
  live.resize(take);
  return live;
}

NodeInfo spawn_info(const SpawnProfile& profile, Rng& rng) {
  return NodeInfo{
      static_cast<std::uint32_t>(rng.uniform(profile.cap_lo, profile.cap_hi)),
      kSpawnBwLoKbps + rng.next_double() * (kSpawnBwHiKbps - kSpawnBwLoKbps)};
}

void FaultInjector::crash_wave(int count) {
  // Keep at least two members alive so the ring stays a ring.
  const std::size_t live = overlay_.size();
  const int can = live > 2 ? static_cast<int>(live - 2) : 0;
  const int n = std::min(count, can);
  if (n < count) {
    note("t=" + format_g(overlay_.sim().now()) + " crash clamped " +
         std::to_string(count) + "->" + std::to_string(n));
  }
  for (Id victim : pick_live(n)) {
    overlay_.crash(victim);
    note("t=" + format_g(overlay_.sim().now()) + " crash node=" +
         std::to_string(victim));
  }
}

void FaultInjector::region_fail_wave(Id center, double radius, int count) {
  // Correlated regional crash: the up-to-`count` live members nearest
  // `center` on the ring, capped by the blast radius. Deterministic —
  // no RNG draw; ties break to the smaller id via stable_sort over the
  // sorted member list (the same rule as the workload DSL's regionfail).
  std::vector<Id> ordered = overlay_.members_sorted();
  const RingSpace& ring = overlay_.ring();
  const std::uint64_t blast = static_cast<std::uint64_t>(
      radius * static_cast<double>(ring.size()));
  std::stable_sort(ordered.begin(), ordered.end(), [&](Id x, Id y) {
    return ring.distance(x, center) < ring.distance(y, center);
  });
  // Keep at least two members alive so the ring stays a ring.
  const std::size_t live = overlay_.size();
  const int can = live > 2 ? static_cast<int>(live - 2) : 0;
  int n = std::min(count, can);
  if (n < count) {
    note("t=" + format_g(overlay_.sim().now()) + " regionfail clamped " +
         std::to_string(count) + "->" + std::to_string(n));
  }
  for (Id victim : ordered) {
    if (n <= 0) break;
    if (ring.distance(victim, center) > blast) break;
    overlay_.crash(victim);
    note("t=" + format_g(overlay_.sim().now()) + " regionfail node=" +
         std::to_string(victim) + " center=" + std::to_string(center));
    --n;
  }
}

void FaultInjector::restart_wave(int count) {
  const std::size_t live = overlay_.size();
  const int can = live > 2 ? static_cast<int>(live - 2) : 0;
  const int n = std::min(count, can);
  for (Id victim : pick_live(n)) {
    overlay_.crash(victim);
    std::vector<Id> contacts = overlay_.members_sorted();
    if (contacts.empty()) break;
    Id contact = contacts[rng_.next_below(contacts.size())];
    Id fresh = fresh_id();
    NodeInfo info = spawn_info(profile_, rng_);
    overlay_.spawn(fresh, info, contact);
    note("t=" + format_g(overlay_.sim().now()) + " restart node=" +
         std::to_string(victim) + " -> node=" + std::to_string(fresh) +
         " via=" + std::to_string(contact) + " cap=" +
         std::to_string(info.capacity));
  }
}

void FaultInjector::join_wave(int count) {
  for (int i = 0; i < count; ++i) {
    std::vector<Id> contacts = overlay_.members_sorted();
    if (contacts.empty()) break;
    Id contact = contacts[rng_.next_below(contacts.size())];
    Id fresh = fresh_id();
    NodeInfo info = spawn_info(profile_, rng_);
    overlay_.spawn(fresh, info, contact);
    note("t=" + format_g(overlay_.sim().now()) + " join node=" +
         std::to_string(fresh) + " via=" + std::to_string(contact) +
         " cap=" + std::to_string(info.capacity));
  }
}

}  // namespace cam::fault
