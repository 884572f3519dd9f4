// Metric primitives of the telemetry subsystem: counters, gauges, and
// log-bucketed histograms, organized in a Registry keyed by name with
// optional per-node and per-message-class dimensions.
//
// Design constraints (see DESIGN.md, "Observability"):
//  * zero cost when no sink is attached — instrumentation sites hold a
//    telemetry::Sink whose members are null by default and test one
//    pointer before doing anything;
//  * cheap when attached — a metric lookup is one map probe, and hot
//    paths (HostBus::post, Network::send) cache the returned reference,
//    which is stable for the Registry's lifetime (node-based maps);
//  * deterministic export — families iterate in name order, labeled
//    series in label order, so two identical runs serialize identically.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "ids/ring.h"
#include "sim/msg_class.h"

namespace cam::telemetry {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t d = 1) { value_ += d; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value (e.g. ring consistency, live member count).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Log-bucketed histogram over non-negative samples (latencies in ms,
/// hop counts, ...). Bucket i covers (2^(kMinExp+i-1), 2^(kMinExp+i)];
/// bucket 0 absorbs everything at or below 2^kMinExp. Exact count, sum,
/// min and max are tracked alongside the buckets, so means are exact and
/// only quantiles are bucket-approximated.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kMinExp = -8;  // bucket 0 top: 2^-8 ≈ 0.004

  void record(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

  /// Inclusive upper bound of bucket i: 2^(kMinExp+i).
  static double bucket_upper(int i);

  /// Bucket index a sample lands in (exposed for tests).
  static int bucket_of(double v);

  /// Bucket-interpolated quantile estimate, q in [0, 1]. Clamped to the
  /// exact [min, max] envelope so tails never over-shoot.
  double quantile(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Named metric families with optional per-node / per-class labels.
///
/// `counter("rpc.timeouts")` is the aggregate series of the family;
/// `counter("rpc.timeouts", node)` a per-node series. The two are
/// independent — Sink helpers increment both so aggregates stay exact
/// without a summation pass at export time. References returned are
/// stable for the Registry's lifetime.
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name].total; }
  Counter& counter(const std::string& name, Id node) {
    return counters_[name].per_node[node];
  }
  Counter& counter(const std::string& name, MsgClass cls) {
    return counters_[name].per_class[static_cast<std::size_t>(cls)];
  }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) {
    return histograms_[name].total;
  }
  Histogram& histogram(const std::string& name, Id node) {
    return histograms_[name].per_node[node];
  }

  /// Aggregate counter value; 0 if the family does not exist.
  std::uint64_t value(const std::string& name) const;
  /// Per-class counter value; 0 if absent.
  std::uint64_t value(const std::string& name, MsgClass cls) const;
  /// Aggregate histogram, or nullptr if the family does not exist.
  const Histogram* find_histogram(const std::string& name) const;
  /// Gauge value; 0 if absent.
  double gauge_value(const std::string& name) const;

  // --- export-side iteration (name-sorted, deterministic) --------------
  struct CounterFamily {
    Counter total;
    std::array<Counter, kNumMsgClasses> per_class{};
    std::map<Id, Counter> per_node;

    bool has_class_series() const {
      for (const auto& c : per_class) {
        if (c.value() != 0) return true;
      }
      return false;
    }
  };
  struct HistogramFamily {
    Histogram total;
    std::map<Id, Histogram> per_node;
  };

  const std::map<std::string, CounterFamily>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramFamily>& histograms() const {
    return histograms_;
  }

  // --- single-owner enforcement (see DESIGN.md §9) ---------------------
  // A Registry is not thread-safe: map insertion during metric lookup
  // races with any concurrent access. Under the parallel sweep runtime
  // every cell therefore owns its Registry outright. A writing host
  // (AsyncOverlayNet) registers itself here; a second live host
  // attaching to the same Registry is a wiring bug and asserts
  // immediately instead of racing. The Registry must outlive the host
  // attached to it (the host detaches from its destructor).

  /// Claims this Registry for `host`. Re-attaching the same host is a
  /// no-op; attaching while another host holds it asserts.
  void attach_host(const void* host) {
    assert((host_ == nullptr || host_ == host) &&
           "telemetry::Registry shared by two live hosts; "
           "give each sweep cell its own Registry");
    host_ = host;
  }
  /// Releases the claim. Detaching a host that is not attached is a
  /// no-op (so detach is safe to call unconditionally).
  void detach_host(const void* host) {
    if (host_ == host) host_ = nullptr;
  }

 private:
  const void* host_ = nullptr;
  std::map<std::string, CounterFamily> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramFamily> histograms_;
};

}  // namespace cam::telemetry
