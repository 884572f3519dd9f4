// CAM-Chord protocol mode: per-node neighbor tables over the shared ring
// machinery (overlay/ring_net.h), running the paper's Section 3 LOOKUP
// and MULTICAST through possibly-stale local state.
//
// Node x's table holds one entry per neighbor identifier
// x_{i,j} = (x + j * c_x^i) mod N — the node believed responsible for it.
// Entries are seeded at join and repaired by fix_neighbors (LOOKUP per
// entry), exactly the division of labor the paper describes in
// Section 3.3 ("we use the same Chord protocols ... the only difference
// is that our LOOKUP routine replaces the Chord LOOKUP routine").
//
// Table storage is struct-of-arrays for million-node populations: a
// FlatIndex keyed by node id, an entries column packed into one
// SpanArena (one span per node instead of one heap vector per node),
// and the clockwise-offset ladder deduplicated per capacity class —
// the ladder is a pure function of (ring, c), so a million nodes with a
// handful of distinct capacities share a handful of offset vectors.
#pragma once

#include <cassert>
#include <span>

#include "camchord/neighbor_math.h"
#include "overlay/ring_net.h"
#include "util/flat_table.h"

namespace cam::camchord {

class CamChordNet final : public RingOverlayNet {
 public:
  CamChordNet(RingSpace ring, Network& net) : RingOverlayNet(ring, net) {}

  /// LOOKUP(target) from member `from` through current routing tables.
  LookupResult lookup(Id from, Id target) const override;

  /// Any-source multicast, event-driven over the Network. Deliveries to
  /// nodes that fail mid-flight are lost (the churn benches measure it).
  MulticastTree multicast(Id source) override;

  /// Believed responsible node per neighbor identifier of `id`, parallel
  /// to neighbor_identifiers(ring, c_id, id). Introspection for tests.
  std::span<const Id> entries(Id id) const {
    const Span& s = spans_[row_at(id)];
    return {entries_arena_.begin(s), s.len};
  }

  /// The per-hop forwarding decision of x.MULTICAST(msg, k): splits
  /// (x, k] per Section 3.4 and resolves each child through x's table
  /// (successor child from the stabilized successor list), calling
  /// emit(child, bound) per resolved child in selection order. One
  /// definition shared by the serial event loop and the sharded driver;
  /// `scratch` is the caller's reusable child-assignment buffer.
  template <typename Emit>
  void multicast_children(Id x, Id k, std::vector<ChildAssignment>& scratch,
                          Emit&& emit) const {
    const BaseState& st = base(x);
    select_children_into(ring_, st.info.capacity, x, k, scratch);
    const std::uint32_t row = row_at(x);
    const Id* table = entries_arena_.begin(spans_[row]);
    for (const ChildAssignment& a : scratch) {
      assert(a.slot < offsets_of(row).size() &&
             offsets_of(row)[a.slot] == ring_.clockwise(x, a.identifier));
      Id child;
      if (a.slot == 0) {
        // The successor child x_{0,1}: served from the stabilized
        // successor list so ring coverage survives table staleness.
        child = live_successor(st);
        if (child == x) continue;
      } else {
        child = table[a.slot];
        if (!alive(child)) continue;
      }
      if (!ring_.in_oc(child, x, a.bound)) continue;
      emit(child, a.bound);
    }
  }

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
  const std::vector<std::uint64_t>& offsets_of(std::uint32_t row) const {
    return offset_sets_[offset_set_[row]];
  }

  /// Closest live table entry strictly inside (x, target) — fallback when
  /// the designated entry is dead.
  std::optional<Id> best_preceding_live(Id x, Id target) const;

  // SoA table storage: key index plus parallel columns. A node's span is
  // sized once at join (the identifier count is a pure function of its
  // capacity) and mutated in place by fix/oracle passes; leave/fail
  // abandons the span in the arena (bounded slack under churn).
  FlatIndex<Id> tindex_;
  std::vector<Span> spans_;                // column: entries span
  std::vector<std::uint32_t> offset_set_;  // column: offset-set index
  SpanArena<Id> entries_arena_;
  std::vector<std::vector<std::uint64_t>> offset_sets_;  // by capacity class
  FlatMap<std::uint32_t, std::uint32_t> offset_set_by_cap_;
};

}  // namespace cam::camchord
