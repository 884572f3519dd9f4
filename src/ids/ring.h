// Identifier-ring arithmetic (paper, Section 2).
//
// All member hosts are mapped onto an identifier ring [0, N-1] with
// N = 2^b. This header implements exactly the paper's notation:
//
//   * (x, y]          — the segment that starts at x+1, moves clockwise,
//                       and ends at y; its size is (y - x) mod N.
//   * |x - y|         — min{(y-x) mod N, (x-y) mod N}, the ring distance.
//   * successor(x)    — resolved by the overlay layer (see overlay/), not
//                       here; this module is pure identifier arithmetic.
//
// Identifiers are uint64_t; a RingSpace fixes the number of bits b and
// performs all arithmetic modulo 2^b.
#pragma once

#include <cassert>
#include <cstdint>

namespace cam {

/// A ring identifier. Always interpreted modulo the enclosing RingSpace.
using Id = std::uint64_t;

/// Fixed-size identifier space [0, 2^bits). The paper's default is
/// bits = 19 (Section 6); the worked examples use 5 and 6.
class RingSpace {
 public:
  /// The valid range of `bits`: 2^bits must fit a uint64_t. Command
  /// lines reject a --bits outside it before anything builds a ring.
  static constexpr int kMinBits = 1;
  static constexpr int kMaxBits = 63;

  /// Constructs a ring with 2^bits identifiers. Requires
  /// kMinBits <= bits <= kMaxBits.
  explicit constexpr RingSpace(int bits)
      : bits_(bits), size_(std::uint64_t{1} << bits), mask_(size_ - 1) {
    assert(bits >= kMinBits && bits <= kMaxBits);
  }

  constexpr int bits() const { return bits_; }
  constexpr std::uint64_t size() const { return size_; }

  /// Reduces an arbitrary value into the ring.
  constexpr Id wrap(std::uint64_t v) const { return v & mask_; }

  /// (x + d) mod N.
  constexpr Id add(Id x, std::uint64_t d) const { return (x + d) & mask_; }

  /// (x - d) mod N.
  constexpr Id sub(Id x, std::uint64_t d) const { return (x - d) & mask_; }

  /// Clockwise distance (y - x) mod N — the size of the segment (x, y].
  /// Zero iff x == y (the empty segment, per the paper's size formula).
  constexpr std::uint64_t clockwise(Id x, Id y) const {
    return (y - x) & mask_;
  }

  /// The paper's |x - y| = min{(y-x), (x-y)} ring metric.
  constexpr std::uint64_t distance(Id x, Id y) const {
    std::uint64_t d = clockwise(x, y);
    return d <= size_ / 2 ? d : size_ - d;
  }

  /// k ∈ (x, y] — open at x, closed at y, clockwise. Empty when x == y.
  constexpr bool in_oc(Id k, Id x, Id y) const {
    std::uint64_t dk = clockwise(x, k);
    return dk != 0 && dk <= clockwise(x, y);
  }

  /// k ∈ [x, y) — closed at x, open at y, clockwise. Empty when x == y.
  constexpr bool in_co(Id k, Id x, Id y) const {
    return clockwise(x, k) < clockwise(x, y);
  }

  /// k ∈ (x, y) — open both ends. Empty when x == y or y == x+1.
  constexpr bool in_oo(Id k, Id x, Id y) const {
    std::uint64_t dk = clockwise(x, k);
    return dk != 0 && dk < clockwise(x, y);
  }

  /// True if the identifier is a canonical member of this space.
  constexpr bool contains(Id x) const { return x < size_; }

  // --- bit-shift helpers for the de Bruijn (Koorde/CAM-Koorde) layer ---

  /// Top (most-significant) `l` bits of x, right-aligned. l in [0, bits].
  constexpr std::uint64_t top_bits(Id x, int l) const {
    assert(l >= 0 && l <= bits_);
    return l == 0 ? 0 : (x >> (bits_ - l));
  }

  /// Bottom (least-significant) `l` bits of x. l in [0, bits].
  constexpr std::uint64_t bottom_bits(Id x, int l) const {
    assert(l >= 0 && l <= bits_);
    return l == 0 ? 0 : (x & (mask_ >> (bits_ - l)));
  }

  /// Shift x right by s bits and place `high` into the vacated top bits:
  /// (high << (bits - s)) | (x >> s). Requires 0 <= s <= bits,
  /// 0 <= high < 2^s.
  constexpr Id shift_in_high(Id x, int s, std::uint64_t high) const {
    assert(s >= 0 && s <= bits_);
    if (s == 0) return wrap(x);
    assert(high < (std::uint64_t{1} << s));
    return wrap((high << (bits_ - s)) | (wrap(x) >> s));
  }

  /// Shift x left by one digit in base 2^s and append `low` as the new
  /// low digit (classic Koorde step): ((x << s) | low) mod N.
  constexpr Id shift_in_low(Id x, int s, std::uint64_t low) const {
    assert(s >= 0 && s <= bits_);
    assert(s == 0 || low < (std::uint64_t{1} << s));
    return wrap((x << s) | low);
  }

 private:
  int bits_;
  std::uint64_t size_;
  std::uint64_t mask_;
};

/// Number of ps-common bits between x and k (paper, Definition 1): the
/// largest l such that the l-bit *prefix* of x equals the l-bit *suffix*
/// of k. Returns a value in [0, bits]. x == k iff the result can be
/// `bits` (but equal values always share `bits` ps-common bits).
int ps_common_bits(const RingSpace& ring, Id x, Id k);

}  // namespace cam
