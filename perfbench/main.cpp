// perfbench — the repository's one benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Runs one workload through the public APIs of the production path,
// checks its outputs, prints every metric by name with its unit, and
// ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer split (plus the tracing overhead) and, with --spans, writes
// the recorded spans as JSON lines. Exit status: 0 when every output
// check passed, 1 when one failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric is reported by every workload; README.md gives
// each one's definition per workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"copies_per_s", "copies/s"},
    {"ops_per_s", "ops/s"},
    {"sim_s_per_s", "sim_s/s"},
    {"peak_rss_mb", "MB"},
    {"delivery_ratio", "fraction"},
    {"goodput_kbps", "sim_kbps"},
    {"p99_latency_ms", "sim_ms"},
};

// The per-layer split. A workload reports the layers it drives; the
// rest print as 0 (that layer did no work in this workload).
constexpr MetricDef kPerLayer[] = {
    {"workload.population_s", "s"},
    {"workload.generate_s", "s"},
    {"strategy.build_tree_s", "s"},
    {"session.join_us.p50", "us"},
    {"session.join_us.p99", "us"},
    {"session.join_us.n", "count"},
    {"session.fail_us.p50", "us"},
    {"session.fail_us.p99", "us"},
    {"session.fail_us.n", "count"},
    {"session.leave_us.p99", "us"},
    {"session.leave_us.n", "count"},
    {"session.lookup_hops.mean", "hops"},
    {"session.join_accept_ratio", "fraction"},
    {"session.standby_share", "fraction"},
    {"session.fwd_build_s", "s"},
    {"session.fwd_ns_per_copy", "ns"},
    {"session.fwd_allocs_per_copy", "allocs"},
    {"session.max_backlog_ms", "sim_ms"},
    {"dataplane.build_s", "s"},
    {"dataplane.self_ns_per_copy", "ns"},
    {"dataplane.allocs_per_copy", "allocs"},
    {"dataplane.delegated_share", "fraction"},
    {"proto.feed_advance_s", "s"},
    {"proto.feed_publish_s", "s"},
    {"proto.feed_sample_s", "s"},
    {"proto.heartbeats_per_copy", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_sim_s", "events/sim_s"},
    {"sim.allocs_per_event", "allocs"},
    {"camchord.join_s", "s"},
    {"camchord.oracle_fill_s", "s"},
    {"overlay.cast_s.p50", "s"},
    {"overlay.cast_s.max", "s"},
    {"overlay.events_per_copy", "count"},
    {"overlay.messages_per_copy", "count"},
    {"overlay.allocs_per_event", "allocs"},
    {"runtime.lane_speedup", "ratio"},
    {"rss.after_setup_mb", "MB"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<session_stream|hotspot_stream|sharded_cast> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage("every flag takes a value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 600) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      opt.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--spans") == 0) {
      spans_path = value;
    } else {
      return usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  Tracer tracer;
  Report report;
  if (opt.workload == "session_stream") {
    report = run_session_stream(opt, tracer);
  } else if (opt.workload == "hotspot_stream") {
    report = run_hotspot_stream(opt, tracer);
  } else if (opt.workload == "sharded_cast") {
    report = run_sharded_cast(opt, tracer);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  if (!spans_path.empty() && !tracer.write_jsonl(spans_path)) {
    report.errors.push_back("could not write spans to " + spans_path);
  }

  std::map<std::string, double> got;
  for (const Metric& m : report.metrics) got[m.name] = m.value;
  std::string json;
  bool first = true;
  auto emit = [&](const MetricDef& d, double v) {
    if (!std::isfinite(v)) {
      report.errors.push_back(std::string("metric ") + d.name +
                              " is not a finite number");
      v = 0;
    }
    std::printf("%-30s %.6g %s\n", d.name, v, d.unit);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, v, d.unit);
    json += buf;
    first = false;
  };
  if (opt.trace) {
    for (const MetricDef& d : kPerLayer) {
      auto it = got.find(d.name);
      emit(d, it == got.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      auto it = got.find(d.name);
      if (it == got.end()) {
        report.errors.push_back(std::string("workload did not report ") +
                                d.name);
        emit(d, 0.0);
      } else {
        emit(d, it->second);
      }
    }
  }
  std::fprintf(stderr,
               "perfbench: calibration kernel %.3f ms (fastest of %zu); "
               "reference seconds = wall seconds x %.4f\n",
               calibration_s() * 1e3, calibration_samples(),
               reference_s(1.0));
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = report.errors.empty() && report.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), json.c_str());
  return correct ? 0 : 1;
}
