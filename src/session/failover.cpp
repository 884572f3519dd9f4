#include "session/failover.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace cam::session {

namespace {
constexpr double kEwmaAlpha = 0.125;  // inter-arrival mean weight
constexpr double kDevAlpha = 0.25;    // Jacobson deviation weight
constexpr double kPhiK = 4.0;  // suspicion threshold: mean + k * dev
}  // namespace

void FailureDetector::track(Id watcher, Id peer, SimTime now) {
  auto& row = edges_[watcher];
  if (row.contains(peer)) return;
  Edge e;
  e.last_ms = now;
  e.mean_ms = expected_period_ms_;
  e.dev_ms = expected_period_ms_ / 4.0;
  row.emplace(peer, e);
  ++edge_count_;
}

void FailureDetector::untrack(Id watcher, Id peer) {
  auto it = edges_.find(watcher);
  if (it == edges_.end()) return;
  if (it->second.erase(peer) != 0) --edge_count_;
}

bool FailureDetector::tracks(Id watcher, Id peer) const {
  return find(watcher, peer) != nullptr;
}

const FailureDetector::Edge* FailureDetector::find(Id watcher,
                                                   Id peer) const {
  auto it = edges_.find(watcher);
  if (it == edges_.end()) return nullptr;
  auto jt = it->second.find(peer);
  return jt == it->second.end() ? nullptr : &jt->second;
}

void FailureDetector::heartbeat(Id watcher, Id peer, SimTime now) {
  auto it = edges_.find(watcher);
  if (it == edges_.end()) return;
  auto jt = it->second.find(peer);
  if (jt == it->second.end()) return;
  Edge& e = jt->second;
  const double ia = now - e.last_ms;
  if (ia >= 0) {
    // EWMA mean + Jacobson mean-deviation: the classic cheap stand-ins
    // for the phi-accrual distribution estimate.
    e.mean_ms += kEwmaAlpha * (ia - e.mean_ms);
    e.dev_ms += kDevAlpha * (std::abs(ia - e.mean_ms) - e.dev_ms);
  }
  e.last_ms = now;
  e.suspected = false;  // absolve
}

double FailureDetector::window_ms(const Edge& e) {
  return std::max(kDetectorFloorMs, e.mean_ms + kPhiK * e.dev_ms);
}

double FailureDetector::timeout_ms(Id watcher, Id peer) const {
  const Edge* e = find(watcher, peer);
  return e == nullptr ? 0 : window_ms(*e);
}

SimTime FailureDetector::suspect_deadline(Id watcher, Id peer) const {
  const Edge* e = find(watcher, peer);
  if (e == nullptr) return 0;
  return e->last_ms +
         static_cast<double>(kDetectorStrikes) * timeout_ms(watcher, peer);
}

std::vector<FailureDetector::Suspicion> FailureDetector::sweep(
    SimTime now) {
  // FlatMap iteration order depends on hashing; collect and sort so the
  // suspicion list is canonical regardless of insertion history.
  std::vector<Suspicion> out;
  for (auto& [watcher, row] : edges_) {
    for (auto& [peer, e] : row) {
      if (e.suspected) continue;
      const SimTime deadline =
          e.last_ms + static_cast<double>(kDetectorStrikes) * window_ms(e);
      if (deadline <= now) {
        e.suspected = true;  // latch until a heartbeat absolves
        out.push_back(Suspicion{watcher, peer, deadline});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Suspicion& a, const Suspicion& b) {
              if (a.watcher != b.watcher) return a.watcher < b.watcher;
              return a.peer < b.peer;
            });
  return out;
}

double HeartbeatSchedule::hash_uniform(Id watcher, Id peer,
                                       std::uint64_t salt) const {
  std::uint64_t state = seed_;
  state ^= 0x9E3779B97F4A7C15ULL + splitmix64(state);
  state ^= watcher * 0xBF58476D1CE4E5B9ULL;
  (void)splitmix64(state);
  state ^= peer * 0x94D049BB133111EBULL;
  (void)splitmix64(state);
  state ^= salt;
  const std::uint64_t h = splitmix64(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

SimTime HeartbeatSchedule::arrival_offset(Id watcher, Id peer,
                                          std::uint64_t index) const {
  const double u = hash_uniform(watcher, peer, index);
  return static_cast<double>(index + 1) * period_ms_ +
         period_ms_ * jitter_ * (u - 0.5);
}

}  // namespace cam::session
