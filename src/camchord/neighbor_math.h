// CAM-Chord identifier mathematics (paper, Section 3.1 and 3.4).
//
// Node x with capacity c_x keeps neighbors responsible for the
// identifiers
//     x_{i,j} = (x + j * c_x^i) mod N,
//     j in [1 .. c_x - 1],  i in [0 .. ceil(log N / log c_x) - 1],
// subject to j * c_x^i <= N - 1 (identifiers that would lap the ring are
// not neighbors — cf. the paper's Figure 2 example where x_{3,2} does not
// exist for N = 32, c_x = 3).
//
// For an arbitrary identifier k != x, the *level* i and *sequence number*
// j of k with respect to x are (Eq. 1-2)
//     i = floor(log(k - x) / log c_x),   j = floor((k - x) / c_x^i),
// where (k - x) is the clockwise segment size. x_{i,j} is then the
// neighbor identifier counter-clockwise closest to k.
//
// Everything in this header is pure, exact integer arithmetic — no node
// state, no resolution. Both the protocol-mode node and the oracle-mode
// driver build on these functions, so tests of this header cover the
// arithmetic used everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ids/ring.h"

namespace cam::camchord {

/// Minimum capacity CAM-Chord supports: the level/sequence decomposition
/// requires a logarithm base of at least 2.
inline constexpr std::uint32_t kMinCapacity = 2;

/// (level, sequence) of an identifier with respect to a node.
struct LevelSeq {
  int level = 0;           // i
  std::uint64_t seq = 0;   // j
};

/// Number of neighbor levels for capacity c: smallest L with c^L >= N.
int num_levels(const RingSpace& ring, std::uint32_t c);

/// Eq. 1-2: level and sequence number of k with respect to x.
/// Precondition: k != x (the clockwise distance must be >= 1), c >= 2.
LevelSeq level_seq(const RingSpace& ring, std::uint32_t c, Id x, Id k);

/// The neighbor identifier x_{i,j} = (x + j * c^i) mod N.
Id neighbor_identifier(const RingSpace& ring, std::uint32_t c, Id x, int i,
                       std::uint64_t j);

/// All valid neighbor identifiers of x (ascending clockwise offset),
/// excluding x itself. Size is at most (c-1) * num_levels but smaller
/// near the top level where j * c^i would lap the ring.
std::vector<Id> neighbor_identifiers(const RingSpace& ring, std::uint32_t c,
                                     Id x);

/// Index of x_{i,j} in neighbor_identifiers(ring, c, x): i * (c-1) + j-1.
/// Exact for every existing x_{i,j} (j * c^i <= N - 1), because each
/// level below the top holds all c - 1 sequences (c^{i+1} <= N - 1 there)
/// and the top level keeps a prefix j = 1, 2, ... of them. A node's
/// table is parallel to that list, so this is where x_{i,j}'s entry sits.
inline std::size_t neighbor_slot(std::uint32_t c, int i, std::uint64_t j) {
  return static_cast<std::size_t>(i) * (c - 1) +
         static_cast<std::size_t>(j - 1);
}

/// One child assignment produced by the MULTICAST split (Section 3.4):
/// the message goes to the node responsible for `identifier`, which
/// becomes responsible for the region (identifier - 1, bound] — i.e. the
/// child node itself plus the segment up to `bound`.
struct ChildAssignment {
  Id identifier = 0;     // x_{i,m}: where the child neighbor lives
  Id bound = 0;          // k' passed to the child's MULTICAST call
  std::size_t slot = 0;  // neighbor_slot(c, i, m): x's table entry for it
};

/// The child-selection core of x.MULTICAST(msg, k) — pseudocode lines
/// 4-15 of Section 3.4. Splits the region (x, k] into at most c_x
/// sub-regions, as evenly as the neighbor structure allows:
///   * the j level-i neighbors preceding k   (lines 6-9),
///   * c_x - j - 1 evenly spaced level-(i-1) neighbors (lines 10-14;
///     skipped when i == 0, where the level-0 loop already covers the
///     whole region and line 15's successor would coincide with x_{0,1}),
///   * the successor x_{0,1}                  (line 15).
/// Returned in selection order (descending identifier). The caller
/// resolves each identifier (by its `slot`) and must skip assignments
/// whose responsible node falls outside (x, bound] (an empty sub-region).
/// Precondition: k != x, c >= 2.
std::vector<ChildAssignment> select_children(const RingSpace& ring,
                                             std::uint32_t c, Id x, Id k);

/// select_children into a caller-owned buffer (cleared first): the
/// multicast hot path calls this once per forwarding event with a
/// reusable scratch vector, so steady state allocates nothing.
void select_children_into(const RingSpace& ring, std::uint32_t c, Id x, Id k,
                          std::vector<ChildAssignment>& out);

}  // namespace cam::camchord
