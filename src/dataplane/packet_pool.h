// Zero-allocation packet storage for the data plane.
//
// Every packet copy moving through the forwarder (src/dataplane/
// forwarder.h) references one pooled Packet by a 32-bit handle. The pool
// hands out storage from fixed-size slabs (kSlabPackets each) threaded
// through an intrusive free list, so the steady-state cycle
// alloc -> enqueue -> transmit -> release touches no heap at all: a
// release pushes the handle back onto the free list and the next alloc
// pops it. Slabs are only ever added (never freed mid-run), which keeps
// handles stable for the pool's lifetime.
//
// reserve() pre-sizes the slab set the same way Simulator::reserve
// pre-sizes its event slab for a bound on pending events: a caller that
// knows its in-flight bound reserves once and the measured window is then
// *exactly* allocation-free, not amortized-free. tests/dataplane_alloc_probe.cpp
// replaces global operator new to prove it (0 allocs/packet over a
// 500k-packet steady-state churn).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace cam::dataplane {

/// Handle into a PacketPool. 32 bits keeps queue entries small; the
/// sentinel doubles as the free-list terminator.
using PacketRef = std::uint32_t;
inline constexpr PacketRef kNullPacket = 0xFFFFFFFFu;

/// One pooled multicast payload. The payload bytes themselves are not
/// simulated — only their size and timing — so a Packet is pure
/// metadata: which stream, which sequence number, how big, and when the
/// source emitted it (the base of the latency-constrained deadline).
struct Packet {
  std::uint64_t stream = 0;    // group/stream the packet belongs to
  std::uint32_t seq = 0;       // sequence number within the stream
  std::uint32_t bytes = 0;     // payload size
  SimTime emitted_ms = 0;      // source emission time (deadline base)
  std::uint32_t refs = 0;      // live copies + in-flight transmissions
  PacketRef next_free = kNullPacket;  // intrusive free-list link
};

/// Slab-backed, free-list-recycled pool of Packets.
class PacketPool {
 public:
  /// Packets per slab; power of two so handle -> slot is shift + mask.
  static constexpr std::size_t kSlabPackets = 1024;

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Ensures capacity for at least `packets` live packets without any
  /// further slab growth. Call before the measured window.
  void reserve(std::size_t packets);

  /// Allocates a packet with one reference held by the caller.
  PacketRef alloc(std::uint64_t stream, std::uint32_t seq,
                  std::uint32_t bytes, SimTime emitted_ms);

  Packet& get(PacketRef ref) {
    assert(ref < capacity());
    return slabs_[ref >> kSlabShift][ref & kSlabMask];
  }
  const Packet& get(PacketRef ref) const {
    assert(ref < capacity());
    return slabs_[ref >> kSlabShift][ref & kSlabMask];
  }

  /// One more copy of the packet is live (queued or in flight).
  void add_ref(PacketRef ref) { ++get(ref).refs; }

  /// Drops one reference; the packet recycles onto the free list when
  /// the last reference goes.
  void release(PacketRef ref);

  std::size_t capacity() const { return slabs_.size() * kSlabPackets; }
  std::size_t in_use() const { return in_use_; }
  std::size_t peak_in_use() const { return peak_in_use_; }
  std::size_t slab_count() const { return slabs_.size(); }
  std::uint64_t total_allocs() const { return total_allocs_; }
  /// Packets returned to the free list for reuse (recycle events).
  std::uint64_t recycled() const { return recycled_; }

 private:
  static constexpr std::size_t kSlabShift = 10;
  static constexpr std::size_t kSlabMask = kSlabPackets - 1;
  static_assert((std::size_t{1} << kSlabShift) == kSlabPackets);

  void add_slab();

  std::vector<std::unique_ptr<Packet[]>> slabs_;
  PacketRef free_head_ = kNullPacket;
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
  std::uint64_t total_allocs_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace cam::dataplane
