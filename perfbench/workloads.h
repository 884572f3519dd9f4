// The three perfbench workloads and what they hand back to the driver.
//
// Every workload is a closed loop driven by one caller in one process:
// the next operation starts only after the previous call returned.
// Only sharded_cast runs a second thread (the second ShardTeam lane).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// The input goodput_kbps and p99_latency_ms are taken on, whatever
/// --seed is. They are deterministic, but they vary by several percent
/// from seed to seed; on one fixed input they repeat exactly from run to
/// run, so their bound can be near 0 and still reject any change to what
/// receivers get. Every run builds this input after its timed work.
inline constexpr std::uint64_t kReferenceSeed = 1;

struct Metric {
  std::string name;
  double value = 0;
};

/// One workload run. Untraced runs fill `metrics` with the end-to-end
/// metrics; traced runs fill it with the per-layer metrics (a layer the
/// workload does not exercise is left out and reported as 0).
struct Report {
  std::uint64_t attempted = 0;  // measured operations
  std::uint64_t failed = 0;     // operations whose output check failed
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
  /// Records one failed output check (the operation counts as failed).
  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
};

Report run_session_stream(const Options& opt, Tracer& tr);
Report run_hotspot_stream(const Options& opt, Tracer& tr);
Report run_sharded_cast(const Options& opt, Tracer& tr);

/// Shortest wall time of one set-up batch: a set-up faster than this is
/// repeated inside the batch and the batch is divided by the count, so
/// no reported set-up time rests on a timing of tens of milliseconds.
inline constexpr double kSetupBatchS = 0.3;
/// Batches per run; setup_s is their median.
inline constexpr int kSetupBatches = 3;

/// Times one set-up batch and returns the per-set-up seconds; `keep`
/// holds the last state built. Tear-down of the previous state is
/// outside the timing and happens before the next build, so only one
/// state is resident at a time.
template <typename State, typename Make>
double setup_batch(std::unique_ptr<State>& keep, Make&& make) {
  double spent = 0;
  int built = 0;
  while (built == 0 || spent < kSetupBatchS) {
    keep.reset();
    const double t0 = now_s();
    keep = make();
    spent += now_s() - t0;
    ++built;
    calibration_tick();
  }
  return spent / built;
}

/// The remaining set-up batches, run after the measured phase (and after
/// peak_rss_mb was read, so repeated set-ups never inflate it). Destroys
/// `keep`; returns the median per-set-up seconds over every batch.
template <typename State, typename Make>
double finish_setups(double first_batch, std::unique_ptr<State>& keep,
                     Make&& make) {
  std::vector<double> per_setup{first_batch};
  for (int b = 1; b < kSetupBatches; ++b) {
    per_setup.push_back(setup_batch(keep, make));
  }
  keep.reset();
  return median(per_setup);
}

/// The measured loop: repetitions until `seconds` of wall time passed and
/// at least `min_reps` ran. Returns the repetition count.
template <typename Rep>
int repeat_for(double seconds, int min_reps, Rep&& rep) {
  const double t0 = now_s();
  int reps = 0;
  while (reps < min_reps || now_s() - t0 < seconds) {
    rep(reps);
    ++reps;
    calibration_tick();
  }
  return reps;
}

/// Inputs per run, generated from --seed; repetition i runs input
/// i % kInputs. One input is small enough that a repetition's working
/// set stays in a core's own cache; cycling through several keeps the
/// seed-to-seed difference in work a fraction of one input's.
inline constexpr std::size_t kInputs = 8;

/// The seed of input k of a run seeded `seed`.
inline std::uint64_t input_seed(std::uint64_t seed, std::size_t k) {
  return seed * kInputs + k;
}

/// Wall time of one pass over the inputs at each input's fastest
/// repetition, from the times of repetitions that cycled through them.
/// Interference from other guests on the host only ever adds time to a
/// repetition, so the fastest repetition of an input is the steadiest
/// estimate of the code's own speed on it.
inline double fastest_pass(const std::vector<double>& times,
                           std::size_t inputs) {
  std::vector<double> fastest(inputs, 0);
  for (std::size_t i = 0; i < times.size(); ++i) {
    double& f = fastest[i % inputs];
    if (i < inputs || times[i] < f) f = times[i];
  }
  double pass = 0;
  for (double f : fastest) pass += f;
  return pass;
}

/// The traced run's loop: repetition i runs untraced, then again with
/// spans and allocation counting on (`rep(i, traced)`), until `seconds`
/// passed and at least `min_reps` pairs ran. Alternating the two keeps
/// slow drift of the machine out of the traced-minus-untraced overhead.
template <typename Rep>
int alternate_traced(Tracer& tr, double seconds, int min_reps, Rep&& rep) {
  return repeat_for(seconds, min_reps, [&](int i) {
    tr.set_on(false);
    rep(i, false);
    tr.set_on(true);
    tr.set_run(static_cast<std::uint32_t>(i + 1));
    count_allocs(true);
    rep(i, true);
    count_allocs(false);
    tr.set_on(false);
  });
}

}  // namespace perfbench
