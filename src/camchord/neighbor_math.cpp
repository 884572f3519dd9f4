#include "camchord/neighbor_math.h"

#include <cassert>

#include "util/intmath.h"

namespace cam::camchord {

int num_levels(const RingSpace& ring, std::uint32_t c) {
  assert(c >= kMinCapacity);
  // Smallest L with c^L >= N, i.e. L = ceil(log_c N).
  int levels = 0;
  std::uint64_t p = 1;
  while (p < ring.size()) {
    if (p > ring.size() / c) {  // p * c would exceed N; one more level caps it
      ++levels;
      break;
    }
    p *= c;
    ++levels;
  }
  return levels;
}

LevelSeq level_seq(const RingSpace& ring, std::uint32_t c, Id x, Id k) {
  assert(c >= kMinCapacity);
  std::uint64_t d = ring.clockwise(x, k);
  assert(d >= 1 && "level_seq requires k != x");
  int i = ilog(d, c);
  std::uint64_t ci = ipow_sat(c, static_cast<unsigned>(i));
  return LevelSeq{i, d / ci};
}

Id neighbor_identifier(const RingSpace& ring, std::uint32_t c, Id x, int i,
                       std::uint64_t j) {
  std::uint64_t ci = ipow_sat(c, static_cast<unsigned>(i));
  return ring.add(x, j * ci);
}

std::vector<Id> neighbor_identifiers(const RingSpace& ring, std::uint32_t c,
                                     Id x) {
  assert(c >= kMinCapacity);
  std::vector<Id> out;
  const int levels = num_levels(ring, c);
  out.reserve(static_cast<std::size_t>(levels) * (c - 1));
  std::uint64_t ci = 1;  // c^i
  for (int i = 0; i < levels; ++i) {
    for (std::uint64_t j = 1; j <= c - 1; ++j) {
      std::uint64_t off = j * ci;
      if (off > ring.size() - 1) break;  // would lap the ring — not a neighbor
      out.push_back(ring.add(x, off));
    }
    if (ci > (ring.size() - 1) / c) break;  // next level fully lapped
    ci *= c;
  }
  return out;
}

std::vector<ChildAssignment> select_children(const RingSpace& ring,
                                             std::uint32_t c, Id x, Id k) {
  std::vector<ChildAssignment> out;
  select_children_into(ring, c, x, k, out);
  return out;
}

void select_children_into(const RingSpace& ring, std::uint32_t c, Id x, Id k,
                          std::vector<ChildAssignment>& out) {
  assert(c >= kMinCapacity);
  assert(ring.clockwise(x, k) >= 1 &&
         "select_children requires a non-empty region (x, k]");

  const auto [i, j] = level_seq(ring, c, x, k);
  out.clear();
  out.reserve(c);

  Id bound = k;
  const std::uint64_t ci = ipow_sat(c, static_cast<unsigned>(i));

  // Lines 6-9: the j level-i neighbors preceding k, highest first.
  for (std::uint64_t m = j; m >= 1; --m) {
    Id ident = ring.add(x, m * ci);
    out.push_back(ChildAssignment{ident, bound, neighbor_slot(c, i, m)});
    bound = ring.sub(ident, 1);
  }

  if (i == 0) {
    // The level-0 loop above already assigned one child per identifier in
    // (x, k]; lines 10-15 would address level -1 / re-select x_{0,1}.
    return;
  }

  // Lines 10-14: c - j - 1 level-(i-1) neighbors, evenly spaced over the
  // sequence numbers. l is real-valued; the paper's worked example
  // (Section 3.4: c_x = 3, j = 1 selects x_{2,2}) fixes the rounding as
  // ceiling, which also keeps every pick >= 2 and thus distinct from the
  // successor x_{0,1} selected at line 15.
  const std::uint64_t cim1 = ci / c;  // c^{i-1}
  double l = static_cast<double>(c);
  const double step = static_cast<double>(c) / static_cast<double>(c - j);
  for (std::uint64_t m = c - j - 1; m >= 1; --m) {
    l -= step;
    auto seq = static_cast<std::uint64_t>(l);
    if (static_cast<double>(seq) < l) ++seq;  // ceil for non-integral l
    assert(seq >= 2 && seq <= c - 1);
    Id ident = ring.add(x, seq * cim1);
    out.push_back(
        ChildAssignment{ident, bound, neighbor_slot(c, i - 1, seq)});
    bound = ring.sub(ident, 1);
  }

  // Line 15: the successor handles what remains of (x, bound].
  out.push_back(
      ChildAssignment{ring.add(x, 1), bound, neighbor_slot(c, 0, 1)});
}

}  // namespace cam::camchord
