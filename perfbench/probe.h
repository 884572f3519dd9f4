// Measurement plumbing shared by the perfbench workloads: the wall
// clock, the process-wide allocation counter, resident-set probes,
// summary statistics, and the in-memory span tracer of the traced run.
//
// Everything here observes the library from outside: spans wrap calls
// into public functions, tallies wrap callbacks the benchmark installs
// itself, and nothing under src/ is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Global operator new calls since process start, counted only while
/// counting is on (the traced run turns it on; untraced runs pay one
/// relaxed load per allocation). Safe across threads: sharded_cast's
/// second lane allocates concurrently with the caller.
void count_allocs(bool on);
std::uint64_t allocs();

/// Peak resident set of the process so far (getrusage), in MB.
double peak_rss_mb();
/// Current resident set (/proc/self/statm), in MB.
double rss_mb();

/// Machine-speed calibration. Other guests on the host slow the whole
/// machine for minutes at a time (by 40 % in one pass), which no choice of
/// working set avoids. calibration_tick() times a fixed kernel between
/// repetitions, at most every kCalibrationEveryS. calibration_s() is the
/// kernel's fastest time so far, the machine at its quickest in this run,
/// as the throughputs take each input's fastest repetition. reference_s()
/// converts a wall time into reference seconds,
/// wall * kReferenceKernelS / calibration_s(): the time the work would
/// have taken on a machine where the kernel takes kReferenceKernelS.
/// Every end-to-end time and rate is in reference seconds; the per-layer
/// split is in wall seconds.
inline constexpr double kCalibrationEveryS = 0.25;
inline constexpr double kReferenceKernelS = 0.005;
void calibration_tick();
double calibration_s();
std::size_t calibration_samples();
double reference_s(double wall_s);

/// Median and linear-interpolation quantile (q in [0, 1]); 0 for an
/// empty sample.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// In-memory spans of the traced run. A span records its name, start,
/// end, parent span and run id; a call made millions of times records a
/// tally (count + summed time) instead, charged to the enclosing span
/// as child time. A span's self time is its duration minus its child
/// spans and tallies. With tracing off every call is one branch.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint32_t parent = kNone;
    std::uint32_t run = 0;
    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
    double self_seconds() const {
      return static_cast<double>(end_ns - start_ns - child_ns) * 1e-9;
    }
  };
  struct Tally {
    const char* name = "";
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  /// Spans opened from now on carry this run id (one id per measured
  /// repetition; 0 is set-up).
  void set_run(std::uint32_t run) { run_ = run; }

  std::uint32_t open(const char* name);
  void close(std::uint32_t idx);
  /// Adds one timed call to tally `slot` and charges its time to the
  /// innermost open span.
  void tally(std::size_t slot, std::uint64_t ns) {
    tallies_[slot].count += 1;
    tallies_[slot].ns += ns;
    if (!stack_.empty()) spans_[stack_.back()].child_ns += ns;
  }
  std::size_t tally_slot(const char* name);
  const Tally& tally_at(std::size_t slot) const { return tallies_[slot]; }

  /// Summed duration / self time / count of every span named `name`.
  double total_s(const std::string& name) const;
  double self_s(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  /// One JSON object per span, then one per tally.
  bool write_jsonl(const std::string& path) const;

 private:
  bool on_ = false;
  std::uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<Tally> tallies_;
};

/// RAII span: opens on construction when tracing is on, closes on scope
/// exit.
class Scope {
 public:
  Scope(Tracer& t, const char* name)
      : t_(t), idx_(t.on() ? t.open(name) : Tracer::kNone) {}
  ~Scope() {
    if (idx_ != Tracer::kNone) t_.close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t idx_;
};

}  // namespace perfbench
