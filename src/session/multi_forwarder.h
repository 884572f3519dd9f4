// MultiGroupForwarder: a session's groups streamed over one shared data
// plane.
//
// This is the session way to build dataplane::Forwarder (the one packet
// event loop, dataplane/forwarder.h): every group tree in the session
// goes in as one plane group, every node in the union of the trees owns
// one uplink at its ledger capacity B_x, and each outbound link carries
// one BinQueue whose bins are keyed by group id, so copies from
// different groups genuinely contend in the same queues. The event loop,
// service disciplines, admission control and failover surgery all live
// in the plane; this file only translates the session into it. Two
// service disciplines:
//
//   * kShared — one FIFO transmitter per node serving the global FIFO
//     head across ALL groups' bins at the full uplink rate B_x: the
//     paper's Section 4.3 single-FIFO uplink verbatim. With exactly one
//     group the schedule is bit-identical to a FIFO-mode
//     BackpressureForwarder over the same tree, which
//     tests/session_test.cpp pins field-for-field and against a golden
//     file. With several groups, a burst in one group delays the others.
//
//   * kLedgerShares — each (node, group) pair gets its own transmitter
//     at the ledger share rate B_x * debit_g(x) / sum-of-debits(x),
//     serving only that group's bins. A group's schedule then depends
//     only on its own traffic and its ledger allocation, never on what
//     other groups queue: the uncongested group's per-group results are
//     bit-identical to a solo run under the same ledger
//     (tests/session_contention_test.cpp). A group that is the sole
//     ledger user of a node gets the full B_x, so a single-group run is
//     again the FIFO plane.
//
// Admission control is per group: a (node, group) backlog above the
// high watermark raises that group's congestion flag up ITS tree and
// pauses only that group's source; other groups keep emitting.
// Backpressure, delegation, depth reports and deadlines are one-tree
// features (dataplane::BackpressureForwarder): a many-group plane serves
// pure FIFO per transmitter.
#pragma once

#include "dataplane/forwarder.h"
#include "session/session.h"
#include "sim/latency.h"

namespace cam::session {

using dataplane::FailoverScript;
using dataplane::GroupRunStats;
using dataplane::GroupTraffic;
using dataplane::MultiGroupStats;
using dataplane::SchedMode;

struct MultiGroupConfig {
  SchedMode mode = SchedMode::kShared;
  /// Per-group admission watermarks (ms of that group's backlog at a
  /// node, against its serving rate). 0 disables admission control.
  double admission_high_ms = 0;
  double admission_low_ms = 0;
  /// Gap repair gives up on packets older than this at reattach time
  /// (the zombie deadline): a repair that would arrive later than any
  /// playout point is wasted uplink. 0 = repair everything.
  double repair_deadline_ms = 0;
};

/// Streams any of the session's groups through the shared plane:
/// run(traffic, script) is dataplane::Forwarder::run.
class MultiGroupForwarder : public dataplane::Forwarder {
 public:
  /// Captures the session's group trees, ledger shares and uplinks at
  /// construction. The latency model must outlive the forwarder; the
  /// run is single-shot.
  MultiGroupForwarder(const SessionLayer& session,
                      const LatencyModel& latency, MultiGroupConfig cfg);
};

}  // namespace cam::session
