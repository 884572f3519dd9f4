#include "workload/session_workload.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/num_text.h"

namespace cam::workload {

const char* workload_kind_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kGroups: return "groups";
    case WorkloadKind::kFlash: return "flash";
    case WorkloadKind::kDiurnal: return "diurnal";
    case WorkloadKind::kRegionFail: return "regionfail";
  }
  return "?";
}

std::string WorkloadItem::to_string() const {
  std::ostringstream os;
  os << workload_kind_name(kind);
  switch (kind) {
    case WorkloadKind::kGroups:
      os << " n=" << count << " alpha=" << format_g(alpha)
         << " min=" << min_size << " max=" << max_size;
      break;
    case WorkloadKind::kFlash:
      os << " group=" << group << " at=" << format_g(at_ms)
         << " joins=" << joins << " spacing=" << format_g(spacing_ms);
      break;
    case WorkloadKind::kDiurnal:
      os << " start=" << format_g(start_ms) << " end=" << format_g(end_ms)
         << " period=" << format_g(period_ms) << " amp=" << format_g(amplitude)
         << " join=" << format_g(join_rate)
         << " leave=" << format_g(leave_rate);
      break;
    case WorkloadKind::kRegionFail:
      os << " at=" << format_g(at_ms) << " center=" << center
         << " radius=" << format_g(radius) << " n=" << fail_count;
      break;
  }
  return os.str();
}

WorkloadPlan& WorkloadPlan::groups(std::uint32_t count, double alpha,
                                   std::uint32_t min_size,
                                   std::uint32_t max_size) {
  WorkloadItem it;
  it.kind = WorkloadKind::kGroups;
  it.count = count;
  it.alpha = alpha;
  it.min_size = min_size;
  it.max_size = max_size;
  items_.push_back(it);
  return *this;
}

WorkloadPlan& WorkloadPlan::flash(std::uint64_t group, SimTime at,
                                  std::uint32_t joins, SimTime spacing_ms) {
  WorkloadItem it;
  it.kind = WorkloadKind::kFlash;
  it.group = group;
  it.at_ms = at;
  it.joins = joins;
  it.spacing_ms = spacing_ms;
  items_.push_back(it);
  return *this;
}

WorkloadPlan& WorkloadPlan::diurnal(SimTime start, SimTime end,
                                    SimTime period, double amplitude,
                                    double join_rate, double leave_rate) {
  WorkloadItem it;
  it.kind = WorkloadKind::kDiurnal;
  it.start_ms = start;
  it.end_ms = end;
  it.period_ms = period;
  it.amplitude = amplitude;
  it.join_rate = join_rate;
  it.leave_rate = leave_rate;
  items_.push_back(it);
  return *this;
}

WorkloadPlan& WorkloadPlan::region_fail(SimTime at, Id center,
                                        double radius,
                                        std::uint32_t count) {
  WorkloadItem it;
  it.kind = WorkloadKind::kRegionFail;
  it.at_ms = at;
  it.center = center;
  it.radius = radius;
  it.fail_count = count;
  items_.push_back(it);
  return *this;
}

std::string WorkloadPlan::to_string() const {
  std::string out;
  for (const WorkloadItem& it : items_) {
    out += it.to_string();
    out += '\n';
  }
  return out;
}

std::optional<WorkloadPlan> WorkloadPlan::parse(const std::string& text,
                                                std::string* error) {
  auto fail = [&](int line,
                  const std::string& why) -> std::optional<WorkloadPlan> {
    if (error != nullptr) {
      *error = "line " + std::to_string(line) + ": " + why;
    }
    return std::nullopt;
  };

  WorkloadPlan plan;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    if (auto hash = raw.find('#'); hash != std::string::npos) {
      raw.resize(hash);
    }
    std::istringstream ls(raw);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(t);
    if (tok.empty()) continue;  // blank or comment-only line

    WorkloadItem it;
    const std::string& kind = tok[0];
    if (kind == "groups") {
      it.kind = WorkloadKind::kGroups;
    } else if (kind == "flash") {
      it.kind = WorkloadKind::kFlash;
    } else if (kind == "diurnal") {
      it.kind = WorkloadKind::kDiurnal;
    } else if (kind == "regionfail") {
      it.kind = WorkloadKind::kRegionFail;
    } else {
      return fail(lineno, "unknown workload kind '" + kind + "'");
    }

    for (std::size_t i = 1; i < tok.size(); ++i) {
      auto eq = tok[i].find('=');
      if (eq == std::string::npos) {
        return fail(lineno, "expected key=value, got '" + tok[i] + "'");
      }
      const std::string key = tok[i].substr(0, eq);
      const std::string val = tok[i].substr(eq + 1);
      std::uint64_t u = 0;
      if (key == "n") {
        if (!parse_unsigned(val, u) || u == 0 || u > 10'000'000) {
          return fail(lineno, "bad count '" + val + "'");
        }
        if (it.kind == WorkloadKind::kRegionFail) {
          it.fail_count = static_cast<std::uint32_t>(u);
        } else {
          it.count = static_cast<std::uint32_t>(u);
        }
      } else if (key == "alpha") {
        if (!parse_finite(val, it.alpha) || it.alpha < 0) {
          return fail(lineno, "bad alpha '" + val + "'");
        }
      } else if (key == "min") {
        if (!parse_unsigned(val, u) || u == 0) {
          return fail(lineno, "bad min '" + val + "'");
        }
        it.min_size = static_cast<std::uint32_t>(u);
      } else if (key == "max") {
        if (!parse_unsigned(val, u) || u == 0) {
          return fail(lineno, "bad max '" + val + "'");
        }
        it.max_size = static_cast<std::uint32_t>(u);
      } else if (key == "group") {
        if (!parse_unsigned(val, it.group) || it.group == 0) {
          return fail(lineno, "bad group '" + val + "'");
        }
      } else if (key == "at") {
        if (!parse_finite(val, it.at_ms) || it.at_ms < 0) {
          return fail(lineno, "bad time '" + val + "'");
        }
      } else if (key == "joins") {
        if (!parse_unsigned(val, u) || u == 0 || u > 10'000'000) {
          return fail(lineno, "bad joins '" + val + "'");
        }
        it.joins = static_cast<std::uint32_t>(u);
      } else if (key == "spacing") {
        if (!parse_finite(val, it.spacing_ms) || it.spacing_ms < 0) {
          return fail(lineno, "bad spacing '" + val + "'");
        }
      } else if (key == "start") {
        if (!parse_finite(val, it.start_ms) || it.start_ms < 0) {
          return fail(lineno, "bad start '" + val + "'");
        }
      } else if (key == "end") {
        if (!parse_finite(val, it.end_ms) || it.end_ms < 0) {
          return fail(lineno, "bad end '" + val + "'");
        }
      } else if (key == "period") {
        if (!parse_finite(val, it.period_ms) || it.period_ms <= 0) {
          return fail(lineno, "bad period '" + val + "'");
        }
      } else if (key == "amp") {
        if (!parse_finite(val, it.amplitude) || it.amplitude < 0 ||
            it.amplitude > 1) {
          return fail(lineno, "bad amp '" + val + "' (need 0..1)");
        }
      } else if (key == "join") {
        if (!parse_finite(val, it.join_rate) || it.join_rate < 0) {
          return fail(lineno, "bad join rate '" + val + "'");
        }
      } else if (key == "leave") {
        if (!parse_finite(val, it.leave_rate) || it.leave_rate < 0) {
          return fail(lineno, "bad leave rate '" + val + "'");
        }
      } else if (key == "center") {
        if (!parse_unsigned(val, it.center)) {
          return fail(lineno, "bad center '" + val + "'");
        }
      } else if (key == "radius") {
        if (!parse_finite(val, it.radius) || it.radius <= 0 ||
            it.radius > 0.5) {
          return fail(lineno, "bad radius '" + val + "' (need 0<f<=0.5)");
        }
      } else {
        return fail(lineno, "unknown key '" + key + "'");
      }
    }
    if (it.kind == WorkloadKind::kGroups && it.min_size > it.max_size) {
      return fail(lineno, "groups needs min <= max");
    }
    if (it.kind == WorkloadKind::kDiurnal && it.end_ms < it.start_ms) {
      return fail(lineno, "diurnal needs start <= end");
    }
    plan.items_.push_back(std::move(it));
  }
  return plan;
}

std::vector<std::uint32_t> zipf_group_sizes(std::uint32_t count,
                                            double alpha,
                                            std::uint32_t min_size,
                                            std::uint32_t max_size,
                                            Rng& rng) {
  assert(min_size >= 1 && min_size <= max_size);
  // Inverse-CDF sampling over the finite support [min..max].
  const std::uint32_t span = max_size - min_size + 1;
  std::vector<double> cdf(span);
  double total = 0;
  for (std::uint32_t i = 0; i < span; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf[i] = total;
  }
  std::vector<std::uint32_t> sizes;
  sizes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const double u = rng.next_double() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const std::uint32_t bucket =
        static_cast<std::uint32_t>(it - cdf.begin());
    sizes.push_back(min_size + std::min(bucket, span - 1));
  }
  return sizes;
}

namespace {

/// Intended-membership bookkeeping while expanding a plan. Sorted
/// vectors keep every pick deterministic.
struct GroupState {
  Id source = 0;
  std::vector<Id> members;  // ascending, source included
  bool alive = false;
};

bool is_member(const GroupState& g, Id node) {
  return std::binary_search(g.members.begin(), g.members.end(), node);
}

void insert_member(GroupState& g, Id node) {
  g.members.insert(
      std::upper_bound(g.members.begin(), g.members.end(), node), node);
}

void erase_member(GroupState& g, Id node) {
  auto it = std::lower_bound(g.members.begin(), g.members.end(), node);
  if (it != g.members.end() && *it == node) g.members.erase(it);
}

}  // namespace

std::vector<SessionEvent> generate_events(const WorkloadPlan& plan,
                                          const FrozenDirectory& dir,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SessionEvent> events;
  std::vector<GroupState> groups;  // index = group id - 1
  std::vector<Id> live = dir.ids();  // ascending; shrinks on regionfail

  auto random_live = [&]() -> Id {
    return live[rng.next_below(live.size())];
  };
  // Bounded rejection sampling keeps the draw deterministic; a full
  // group simply stops growing (the overlay is finite).
  auto pick_nonmember = [&](const GroupState& g) -> std::optional<Id> {
    for (int tries = 0; tries < 64; ++tries) {
      const Id n = random_live();
      if (!is_member(g, n)) return n;
    }
    return std::nullopt;
  };
  auto create_group = [&](SimTime at) {
    GroupState g;
    g.source = random_live();
    g.alive = true;
    insert_member(g, g.source);
    groups.push_back(std::move(g));
    events.push_back({at, SessionOp::kCreate,
                      static_cast<std::uint64_t>(groups.size()),
                      groups.back().source});
  };

  for (const WorkloadItem& it : plan.items()) {
    // Every step draws from the live nodes; with none left (an empty
    // directory, or a regionfail that took them all) it emits nothing.
    if (live.empty()) break;
    switch (it.kind) {
      case WorkloadKind::kGroups: {
        const std::vector<std::uint32_t> sizes = zipf_group_sizes(
            it.count, it.alpha, it.min_size, it.max_size, rng);
        for (std::uint32_t i = 0; i < it.count; ++i) {
          create_group(it.at_ms);
          GroupState& g = groups.back();
          const std::uint64_t gid = groups.size();
          for (std::uint32_t k = 1; k < sizes[i]; ++k) {
            const auto n = pick_nonmember(g);
            if (!n.has_value()) break;
            events.push_back({it.at_ms, SessionOp::kJoin, gid, *n});
            insert_member(g, *n);
          }
        }
        break;
      }
      case WorkloadKind::kFlash: {
        while (groups.size() < it.group) create_group(it.at_ms);
        GroupState& g = groups[it.group - 1];
        for (std::uint32_t i = 0; i < it.joins; ++i) {
          // Metronome-exact wave: arrival i lands at exactly
          // at + i * spacing (pinned in the workload unit tests).
          const SimTime t =
              it.at_ms + static_cast<SimTime>(i) * it.spacing_ms;
          const auto n = pick_nonmember(g);
          if (!n.has_value()) break;
          events.push_back({t, SessionOp::kJoin, it.group, *n});
          insert_member(g, *n);
        }
        break;
      }
      case WorkloadKind::kDiurnal: {
        double acc_join = 0, acc_leave = 0;
        constexpr SimTime kDt = 1.0;
        constexpr double kTau = 6.283185307179586476925286766559;
        for (SimTime t = it.start_ms; t < it.end_ms; t += kDt) {
          const double mod =
              1.0 + it.amplitude *
                        std::sin(kTau * (t - it.start_ms) / it.period_ms);
          acc_join += it.join_rate * mod * kDt;
          acc_leave += it.leave_rate * mod * kDt;
          while (acc_join >= 1.0 && !groups.empty()) {
            acc_join -= 1.0;
            const std::uint64_t gid = rng.next_below(groups.size()) + 1;
            GroupState& g = groups[gid - 1];
            if (!g.alive) continue;
            const auto n = pick_nonmember(g);
            if (!n.has_value()) continue;
            events.push_back({t, SessionOp::kJoin, gid, *n});
            insert_member(g, *n);
          }
          while (acc_leave >= 1.0 && !groups.empty()) {
            acc_leave -= 1.0;
            const std::uint64_t gid = rng.next_below(groups.size()) + 1;
            GroupState& g = groups[gid - 1];
            // Sources stay: a departing source destroys the group,
            // which diurnal churn is not meant to model.
            if (!g.alive || g.members.size() < 2) continue;
            Id n = g.members[rng.next_below(g.members.size())];
            if (n == g.source) continue;
            events.push_back({t, SessionOp::kLeave, gid, n});
            erase_member(g, n);
          }
        }
        break;
      }
      case WorkloadKind::kRegionFail: {
        // The fail_count live nodes nearest `center` on the ring go
        // down together — ties break to the smaller id. No randomness:
        // the blast region is part of the plan.
        std::vector<Id> ordered = live;
        const RingSpace& ring = dir.ring();
        const std::uint64_t blast = static_cast<std::uint64_t>(
            it.radius * static_cast<double>(ring.size()));
        std::stable_sort(ordered.begin(), ordered.end(),
                         [&](Id a, Id b) {
                           return ring.distance(a, it.center) <
                                  ring.distance(b, it.center);
                         });
        std::uint32_t failed = 0;
        for (Id n : ordered) {
          if (failed >= it.fail_count) break;
          if (ring.distance(n, it.center) > blast) break;
          events.push_back({it.at_ms, SessionOp::kFail, 0, n});
          ++failed;
          live.erase(std::lower_bound(live.begin(), live.end(), n));
          for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            GroupState& g = groups[gi];
            if (!g.alive) continue;
            if (g.source == n) {
              g.alive = false;
              g.members.clear();
            } else {
              erase_member(g, n);
            }
          }
          if (live.empty()) break;
        }
        break;
      }
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const SessionEvent& a, const SessionEvent& b) {
                     return a.at_ms < b.at_ms;
                   });
  return events;
}

}  // namespace cam::workload
