#include "sim/shard_group.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace cam {

namespace {
constexpr SimTime kNegInf = -std::numeric_limits<SimTime>::infinity();
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
}  // namespace

ShardGroup::ShardGroup(std::size_t shards, SimTime lookahead)
    : lookahead_(lookahead), window_end_(kNegInf) {
  if (shards == 0) shards = 1;
  assert((shards == 1 || lookahead > 0) &&
         "a zero latency floor cannot be sharded");
  sims_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  out_.resize(shards * shards);
  counts_.resize(shards);
}

void ShardGroup::inject_outboxes() {
  const std::size_t s_count = sims_.size();
  for (std::size_t dst = 0; dst < s_count; ++dst) {
    Simulator& sim = *sims_[dst];
    for (std::size_t src = 0; src < s_count; ++src) {
      std::vector<Pending>& cell = out_[src * s_count + dst].items;
      for (Pending& p : cell) sim.at(p.time, std::move(p.fn));
      cell.clear();
    }
  }
}

bool ShardGroup::step_window(runtime::ShardTeam& team, SimTime horizon,
                             std::uint64_t& executed) {
  if (barrier_hook_) barrier_hook_();
  inject_outboxes();

  SimTime t_min = kInf;
  for (auto& sim : sims_) {
    if (!sim->empty()) t_min = std::min(t_min, sim->peek_next_time());
  }
  // Note t_min == +inf (all shards quiet) must stop even when the
  // horizon is itself +inf, where `>` alone would spin forever.
  if (t_min == kInf || t_min > horizon) return false;

  // The window end: at least one event (t_min), at most one lookahead
  // past the previous window — see the file comment for why arrivals
  // from inside the window then always land strictly beyond it.
  SimTime w = std::max(t_min, window_end_ + lookahead_);
  w = std::min(w, horizon);
  window_end_ = w;

  if (sims_.size() == 1) {
    executed += sims_[0]->run_until(w);
    return true;
  }
  team.run([this, w](std::size_t lane) {
    counts_[lane].n = sims_[lane]->run_until(w);
  });
  for (const LaneCount& c : counts_) executed += c.n;
  return true;
}

void ShardGroup::check_team(const runtime::ShardTeam& team) const {
  // Lane s runs shard s: a smaller team never runs the last shards (the
  // window loop then spins forever), a larger one indexes past them.
  if (team.size() != sims_.size()) {
    throw std::invalid_argument("ShardGroup: team size is not the shard count");
  }
}

std::uint64_t ShardGroup::run_until_quiet(runtime::ShardTeam& team) {
  check_team(team);
  std::uint64_t executed = 0;
  while (step_window(team, kInf, executed)) {
  }
  return executed;
}

std::uint64_t ShardGroup::run_until(runtime::ShardTeam& team,
                                    SimTime t_end) {
  check_team(team);
  std::uint64_t executed = 0;
  while (step_window(team, t_end, executed)) {
  }
  // Advance idle clocks to the horizon so the next run's windows start
  // from a common floor, exactly like Simulator::run_until.
  for (auto& sim : sims_) sim->run_until(t_end);
  if (window_end_ < t_end) window_end_ = t_end;
  return executed;
}

std::uint64_t ShardGroup::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& sim : sims_) n += sim->events_executed();
  return n;
}

}  // namespace cam
