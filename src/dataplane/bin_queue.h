// Per-neighbor packet queues with depth-gradient accounting.
//
// IRON/GNAT-style backpressure forwarding organizes a node's outbound
// backlog as one BinQueue per neighbor link, and inside each queue one
// FIFO *bin* per group/stream. Two views drive the forwarding decision
// (src/dataplane/forwarder.h):
//
//   * FIFO view — the copy with the lowest global enqueue stamp across
//     all bins. Serving this view exclusively reproduces the legacy
//     single-FIFO uplink of the paper's Section 4.3 model exactly.
//   * pressure view — the head of the deepest bin (most queued bytes).
//     Backpressure mode serves this view when the depth gradient to the
//     neighbor justifies deviating from FIFO order.
//
// Depth is tracked in bytes at bin and queue granularity; the forwarder
// converts to milliseconds of serialization backlog against the owning
// node's uplink rate. Bins are ring buffers recycled in place and the
// stream->bin index is a FlatMap, so a reserved queue enqueues and
// dequeues without heap traffic (tests/dataplane_alloc_probe.cpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "dataplane/packet_pool.h"
#include "util/flat_table.h"

namespace cam::dataplane {

/// One queued transmission duty: deliver packet `pkt` to node `dest`
/// (a dense forwarder index). `order` is the global enqueue stamp that
/// defines legacy FIFO service order; `delegated` marks copies received
/// from a congested peer, which must not be delegated onward (no
/// ping-pong).
struct QueuedCopy {
  PacketRef pkt = kNullPacket;
  std::uint32_t dest = 0;
  std::uint64_t order = 0;
  SimTime enqueue_ms = 0;
  bool delegated = false;
};

/// FIFO ring buffer of copies for one (neighbor, stream) bin.
class Bin {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::uint64_t depth_bytes() const { return depth_bytes_; }

  const QueuedCopy& front() const {
    assert(count_ > 0);
    return ring_[head_];
  }

  void reserve(std::size_t copies);

 private:
  friend class BinQueue;

  void push(const QueuedCopy& copy, std::uint32_t bytes);
  QueuedCopy pop(std::uint32_t bytes);
  void grow();

  std::vector<QueuedCopy> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t depth_bytes_ = 0;
};

/// All bins of one outbound link, keyed by stream id.
class BinQueue {
 public:
  /// Pre-sizes the stream index and `streams` bins of `copies` slots
  /// each, so steady-state push/pop below those bounds never allocates.
  void reserve(std::size_t streams, std::size_t copies_per_bin);

  void push(std::uint64_t stream, const QueuedCopy& copy,
            std::uint32_t bytes);

  bool empty() const { return copies_ == 0; }
  std::size_t size() const { return copies_; }
  std::uint64_t depth_bytes() const { return depth_bytes_; }
  /// Bytes queued for one stream (0 if the stream has no bin).
  std::uint64_t depth_bytes(std::uint64_t stream) const;

  /// Head copy in global FIFO order (lowest enqueue stamp among bin
  /// heads), or nullptr when empty.
  const QueuedCopy* peek_fifo() const;
  /// Head copy of the deepest bin (most bytes; ties break to the lower
  /// enqueue stamp, so the choice is deterministic), or nullptr.
  const QueuedCopy* peek_pressure() const;
  /// Head copy of one stream's bin (FIFO within the bin), or nullptr if
  /// the stream has no queued copies. The session layer's per-group
  /// virtual transmitters serve this view: each group drains its own
  /// bin independently of what the other groups have queued here.
  const QueuedCopy* peek_stream(std::uint64_t stream) const;

  /// Pops the copy `peek_fifo()` / `peek_pressure()` / `peek_stream()`
  /// returned. `bytes` must be the packet's size (depth accounting).
  QueuedCopy pop_fifo(std::uint32_t bytes);
  QueuedCopy pop_pressure(std::uint32_t bytes);
  QueuedCopy pop_stream(std::uint64_t stream, std::uint32_t bytes);

 private:
  const Bin* select_fifo() const;
  const Bin* select_pressure() const;
  const Bin* select_stream(std::uint64_t stream) const;
  QueuedCopy pop_from(const Bin* bin, std::uint32_t bytes);

  FlatMap<std::uint64_t, std::uint32_t> index_;  // stream -> bins_ slot
  std::vector<Bin> bins_;
  std::size_t copies_ = 0;
  std::uint64_t depth_bytes_ = 0;
  std::size_t reserved_copies_ = 0;  // per-bin pre-size for late bins
};

}  // namespace cam::dataplane
