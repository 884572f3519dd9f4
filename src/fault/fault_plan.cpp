#include "fault/fault_plan.h"

#include <algorithm>
#include <sstream>

#include "util/num_text.h"

namespace cam::fault {

const char* kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kJoin: return "join";
    case FaultKind::kRegionFail: return "regionfail";
    case FaultKind::kClear: return "clear";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::ostringstream os;
  os << "at " << format_g(at_ms) << " " << kind_name(kind);
  switch (kind) {
    case FaultKind::kDrop:
      os << " p=" << format_g(p);
      if (has_link) os << " link=" << a << ":" << b;
      break;
    case FaultKind::kDuplicate:
      os << " p=" << format_g(p) << " copies=" << count;
      break;
    case FaultKind::kDelay:
    case FaultKind::kReorder:
      os << " p=" << format_g(p) << " ms=" << format_g(ms);
      break;
    case FaultKind::kPartition:
      if (!hosts.empty()) {
        os << " ids=";
        for (std::size_t i = 0; i < hosts.size(); ++i) {
          if (i > 0) os << ",";
          os << hosts[i];
        }
      } else {
        os << " frac=" << format_g(frac);
      }
      break;
    case FaultKind::kCrash:
    case FaultKind::kRestart:
    case FaultKind::kJoin:
      os << " n=" << count;
      break;
    case FaultKind::kRegionFail:
      os << " center=" << a << " radius=" << format_g(radius)
         << " n=" << count;
      break;
    case FaultKind::kHeal:
    case FaultKind::kClear:
      break;
  }
  return os.str();
}

FaultPlan& FaultPlan::add(FaultEvent e) {
  events_.push_back(std::move(e));
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at_ms < y.at_ms;
                   });
  return *this;
}

FaultPlan& FaultPlan::drop(SimTime at, double p) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kDrop;
  e.p = p;
  return add(std::move(e));
}

FaultPlan& FaultPlan::drop_link(SimTime at, Id from, Id to, double p) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kDrop;
  e.p = p;
  e.has_link = true;
  e.a = from;
  e.b = to;
  return add(std::move(e));
}

FaultPlan& FaultPlan::duplicate(SimTime at, double p, int copies) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kDuplicate;
  e.p = p;
  e.count = copies;
  return add(std::move(e));
}

FaultPlan& FaultPlan::delay(SimTime at, double p, SimTime extra_ms) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kDelay;
  e.p = p;
  e.ms = extra_ms;
  return add(std::move(e));
}

FaultPlan& FaultPlan::reorder(SimTime at, double p, SimTime window_ms) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kReorder;
  e.p = p;
  e.ms = window_ms;
  return add(std::move(e));
}

FaultPlan& FaultPlan::partition(SimTime at, double frac) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kPartition;
  e.frac = frac;
  return add(std::move(e));
}

FaultPlan& FaultPlan::partition_hosts(SimTime at, std::vector<Id> side_a) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kPartition;
  e.hosts = std::move(side_a);
  return add(std::move(e));
}

FaultPlan& FaultPlan::heal(SimTime at) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kHeal;
  return add(std::move(e));
}

FaultPlan& FaultPlan::crash(SimTime at, int count) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kCrash;
  e.count = count;
  return add(std::move(e));
}

FaultPlan& FaultPlan::restart(SimTime at, int count) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kRestart;
  e.count = count;
  return add(std::move(e));
}

FaultPlan& FaultPlan::join(SimTime at, int count) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kJoin;
  e.count = count;
  return add(std::move(e));
}

FaultPlan& FaultPlan::region_fail(SimTime at, Id center, double radius,
                                  int n) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kRegionFail;
  e.a = center;
  e.radius = radius;
  e.count = n;
  return add(std::move(e));
}

FaultPlan& FaultPlan::clear(SimTime at) {
  FaultEvent e;
  e.at_ms = at;
  e.kind = FaultKind::kClear;
  return add(std::move(e));
}

SimTime FaultPlan::duration() const {
  return events_.empty() ? 0 : events_.back().at_ms;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultEvent& e : events_) {
    out += e.to_string();
    out += '\n';
  }
  return out;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& text,
                                          std::string* error) {
  auto fail = [&](int line, const std::string& why) -> std::optional<FaultPlan> {
    if (error != nullptr) {
      *error = "line " + std::to_string(line) + ": " + why;
    }
    return std::nullopt;
  };

  FaultPlan plan;
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

    if (tok.size() < 3 || tok[0] != "at") {
      return fail(lineno, "expected 'at <ms> <kind> ...'");
    }
    FaultEvent e;
    if (!parse_finite(tok[1], e.at_ms) || e.at_ms < 0) {
      return fail(lineno, "bad time '" + tok[1] + "'");
    }
    const std::string& kind = tok[2];

    // key=value fields after the kind keyword.
    bool saw_p = false, saw_ms = false, saw_n = false, saw_copies = false;
    bool saw_frac = false, saw_ids = false, saw_link = false;
    bool saw_center = false, saw_radius = false;
    for (std::size_t i = 3; i < tok.size(); ++i) {
      auto eq = tok[i].find('=');
      if (eq == std::string::npos) {
        return fail(lineno, "expected key=value, got '" + tok[i] + "'");
      }
      const std::string key = tok[i].substr(0, eq);
      const std::string val = tok[i].substr(eq + 1);
      if (key == "p") {
        if (!parse_finite(val, e.p) || e.p < 0 || e.p > 1) {
          return fail(lineno, "bad probability '" + val + "'");
        }
        saw_p = true;
      } else if (key == "ms") {
        if (!parse_finite(val, e.ms) || e.ms < 0) {
          return fail(lineno, "bad ms '" + val + "'");
        }
        saw_ms = true;
      } else if (key == "n" || key == "copies") {
        std::uint64_t v = 0;
        if (!parse_unsigned(val, v) || v == 0 || v > 1'000'000) {
          return fail(lineno, "bad count '" + val + "'");
        }
        e.count = static_cast<int>(v);
        (key == "n" ? saw_n : saw_copies) = true;
      } else if (key == "frac") {
        if (!parse_finite(val, e.frac) || e.frac <= 0 || e.frac >= 1) {
          return fail(lineno, "bad fraction '" + val + "' (need 0<f<1)");
        }
        saw_frac = true;
      } else if (key == "ids") {
        std::istringstream vs(val);
        for (std::string part; std::getline(vs, part, ',');) {
          std::uint64_t id = 0;
          if (!parse_unsigned(part, id)) {
            return fail(lineno, "bad id '" + part + "'");
          }
          e.hosts.push_back(id);
        }
        if (e.hosts.empty()) return fail(lineno, "empty ids list");
        saw_ids = true;
      } else if (key == "center") {
        std::uint64_t id = 0;
        if (!parse_unsigned(val, id)) {
          return fail(lineno, "bad center '" + val + "'");
        }
        e.a = id;
        saw_center = true;
      } else if (key == "radius") {
        if (!parse_finite(val, e.radius) || e.radius <= 0 ||
            e.radius > 0.5) {
          return fail(lineno, "bad radius '" + val + "' (need 0<f<=0.5)");
        }
        saw_radius = true;
      } else if (key == "link") {
        auto colon = val.find(':');
        std::uint64_t from = 0, to = 0;
        if (colon == std::string::npos ||
            !parse_unsigned(val.substr(0, colon), from) ||
            !parse_unsigned(val.substr(colon + 1), to)) {
          return fail(lineno, "bad link '" + val + "' (need from:to)");
        }
        e.has_link = true;
        e.a = from;
        e.b = to;
        saw_link = true;
      } else {
        return fail(lineno, "unknown key '" + key + "'");
      }
    }

    if (kind == "drop") {
      if (!saw_p) return fail(lineno, "drop needs p=");
      e.kind = FaultKind::kDrop;
    } else if (kind == "dup") {
      if (!saw_p) return fail(lineno, "dup needs p=");
      e.kind = FaultKind::kDuplicate;
      if (!saw_copies) e.count = 1;
    } else if (kind == "delay" || kind == "reorder") {
      if (!saw_p || !saw_ms) return fail(lineno, kind + " needs p= and ms=");
      e.kind = kind == "delay" ? FaultKind::kDelay : FaultKind::kReorder;
    } else if (kind == "partition") {
      if (saw_frac == saw_ids) {
        return fail(lineno, "partition needs exactly one of frac= / ids=");
      }
      e.kind = FaultKind::kPartition;
    } else if (kind == "heal") {
      e.kind = FaultKind::kHeal;
    } else if (kind == "crash" || kind == "restart" || kind == "join") {
      if (!saw_n) return fail(lineno, kind + " needs n=");
      e.kind = kind == "crash"     ? FaultKind::kCrash
               : kind == "restart" ? FaultKind::kRestart
                                   : FaultKind::kJoin;
    } else if (kind == "regionfail") {
      if (!saw_center || !saw_radius || !saw_n) {
        return fail(lineno, "regionfail needs center=, radius= and n=");
      }
      e.kind = FaultKind::kRegionFail;
    } else if (kind == "clear") {
      e.kind = FaultKind::kClear;
    } else {
      return fail(lineno, "unknown fault kind '" + kind + "'");
    }
    if (saw_link && e.kind != FaultKind::kDrop) {
      return fail(lineno, "link= is only valid on drop");
    }
    if ((saw_center || saw_radius) && e.kind != FaultKind::kRegionFail) {
      return fail(lineno, "center=/radius= are only valid on regionfail");
    }
    plan.add(std::move(e));
  }
  return plan;
}

}  // namespace cam::fault
