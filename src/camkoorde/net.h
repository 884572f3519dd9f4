// CAM-Koorde protocol mode over the shared ring machinery: per-node
// de Bruijn entries (Section 4.1's three neighbor groups), the
// ps-common-bit LOOKUP (4.2), and event-driven flooding MULTICAST (4.3)
// with the "has received or is receiving" duplicate check.
//
// Table storage is struct-of-arrays for million-node populations: a
// FlatIndex keyed by node id with the ident/entry columns packed into
// two lockstep SpanArenas — one span per node instead of two heap
// vectors per node. Unlike CAM-Chord's clockwise offsets, shift
// identifiers are absolute (a function of the node id), so both columns
// stay per-node.
#pragma once

#include <span>

#include "camkoorde/neighbor_math.h"
#include "overlay/ring_net.h"
#include "util/flat_table.h"

namespace cam::camkoorde {

class CamKoordeNet final : public RingOverlayNet {
 public:
  CamKoordeNet(RingSpace ring, Network& net) : RingOverlayNet(ring, net) {}

  LookupResult lookup(Id from, Id target) const override;

  MulticastTree multicast(Id source) override;

  /// Believed responsible node per shift identifier of `id`, parallel to
  /// shift_identifiers(ring, c_id, id). Introspection for tests.
  std::span<const Id> entries(Id id) const {
    const Span& s = spans_[row_at(id)];
    return {entries_arena_.begin(s), s.len};
  }

  /// The node's current resolved out-neighbor set (pred + succ + live
  /// de Bruijn entries, deduplicated, self excluded). At most c_x nodes.
  std::vector<Id> neighbors_of(Id id) const;

  /// neighbors_of into a caller-owned buffer (cleared first): the
  /// flooding hot path calls this once per forwarding event with a
  /// reusable scratch vector, so steady state allocates nothing.
  void neighbors_into(Id id, std::vector<Id>& out) const;

 protected:
  std::uint32_t min_capacity() const override { return kMinCapacity; }
  void init_entries(Id id, Id initial_owner) override;
  void drop_entries(Id id) override;
  void fix_entries(Id id) override;
  void oracle_fill_entries(Id id, const NodeDirectory& dir) override;
  std::uint64_t entries_digest(Id id) const override;
  std::optional<Id> closest_live_entry_after(Id id) const override;

 private:
  using Span = SpanArena<Id>::Span;

  std::uint32_t row_at(Id id) const;
  std::span<const Id> idents(Id id) const {
    const Span& s = spans_[row_at(id)];
    return {idents_arena_.begin(s), s.len};
  }

  // SoA table storage: key index plus one span per row addressing both
  // lockstep arenas (idents and entries always have equal length). A
  // node's span is sized once at join and mutated in place by fix/oracle
  // passes; leave/fail abandons it (bounded slack under churn).
  FlatIndex<Id> tindex_;
  std::vector<Span> spans_;
  SpanArena<Id> idents_arena_;
  SpanArena<Id> entries_arena_;
};

}  // namespace cam::camkoorde
