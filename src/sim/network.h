// Message-passing facade over the simulator: delivery with per-link
// latency plus traffic accounting, split by message class so experiments
// can report control/maintenance overhead separately from data.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "ids/ring.h"
#include "sim/latency.h"
#include "sim/msg_class.h"
#include "sim/simulator.h"
#include "telemetry/sink.h"

namespace cam {

/// Per-class message counters.
struct NetStats {
  std::array<std::uint64_t, kNumMsgClasses> messages{};
  std::array<std::uint64_t, kNumMsgClasses> bytes{};

  std::uint64_t total_messages() const {
    std::uint64_t s = 0;
    for (auto m : messages) s += m;
    return s;
  }
  std::uint64_t total_bytes() const {
    std::uint64_t s = 0;
    for (auto b : bytes) s += b;
    return s;
  }
};

/// Simulated network: schedules deliveries on the Simulator after the
/// LatencyModel's one-way delay and tallies traffic.
class Network {
 public:
  Network(Simulator& sim, const LatencyModel& latency)
      : sim_(sim), latency_(latency) {}

  /// Sends `bytes` from `from` to `to`; runs `on_arrival` at delivery
  /// time. Returns the scheduled arrival time. `extra_delay_ms` is added
  /// on top of the model latency (fault injection: delay/reorder faults
  /// stretch individual datagrams); it must be non-negative so delivery
  /// never precedes the send.
  SimTime send(Id from, Id to, std::size_t bytes, Simulator::Action on_arrival,
               MsgClass cls = MsgClass::kData, SimTime extra_delay_ms = 0);

  /// The one-way delay send() would charge for this datagram. The
  /// sharded engine computes arrival times for cross-shard hand-offs
  /// with this instead of scheduling locally.
  SimTime delay_of(Id from, Id to, SimTime extra_delay_ms = 0) const {
    return latency_.latency(from, to) + extra_delay_ms;
  }

  /// Books the traffic of a send whose delivery is scheduled elsewhere
  /// (on another shard's simulator): same counters and latency histogram
  /// as send(), no event. Keeps sender-side accounting identical between
  /// serial and sharded runs.
  void record_send(std::size_t bytes, MsgClass cls, SimTime delay);

  const NetStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Attaches (or detaches, with a default-constructed Sink) telemetry.
  /// The latency histogram handle is resolved once here so the per-send
  /// cost with metrics attached is one pointer test + one record.
  void set_telemetry(telemetry::Sink sink);
  const telemetry::Sink& telemetry() const { return sink_; }

  Simulator& sim() { return sim_; }

 private:
  Simulator& sim_;
  const LatencyModel& latency_;
  NetStats stats_;
  telemetry::Sink sink_;
  telemetry::Histogram* latency_hist_ = nullptr;
};

}  // namespace cam
