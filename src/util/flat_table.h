// Open-addressing hash containers for the protocol hot path.
//
// FlatMap/FlatSet replace std::unordered_map/set in the per-node tables
// the async protocol stack touches on every event (RPC pending tables,
// stream dedup windows, failure-suspect lists, host dispatch). The
// node-based std containers pay one heap allocation per insert and a
// pointer chase per lookup; these store entries contiguously:
//
//   * a dense std::vector<std::pair<K, V>> in insertion order (erase is
//     swap-with-last), which makes iteration cache-linear AND
//     deterministic — no dependence on hash-bucket layout, so simulation
//     outputs cannot drift with the standard library's bucket policy;
//   * a power-of-two slot table of uint32 indices into the dense array,
//     linear probing, backshift deletion (no tombstones), max load 0.7.
//
// Determinism note for this codebase: the containers swapped to FlatMap
// hold per-node protocol state whose iteration is never observable
// without an explicit sort (audited in tests/engine_golden_test.cpp's
// byte-identity goldens). The dense layout makes that robust rather
// than incidental.
//
// bench/micro_ops.cpp measures these against the std containers;
// tests/flat_table_test.cpp churns them against an unordered_map oracle.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cam {

/// Finalizer from the splitmix64 generator: cheap, well-mixed, and fully
/// deterministic across platforms (std::hash of an integer is typically
/// identity, which linear probing punishes on sequential ids).
inline std::uint64_t flat_mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

template <typename K>
struct FlatHash {
  std::size_t operator()(const K& k) const {
    return static_cast<std::size_t>(flat_mix64(
        static_cast<std::uint64_t>(std::hash<K>{}(k))));
  }
};

/// Open-addressing map: dense insertion-order storage + uint32 slot
/// index. API is the used subset of std::unordered_map, plus a member
/// erase_if (the free std::erase_if can't see the slot table).
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;

  std::size_t size() const { return dense_.size(); }
  bool empty() const { return dense_.empty(); }

  iterator begin() { return dense_.begin(); }
  iterator end() { return dense_.end(); }
  const_iterator begin() const { return dense_.begin(); }
  const_iterator end() const { return dense_.end(); }

  void clear() {
    dense_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmpty);
  }

  void reserve(std::size_t n) {
    dense_.reserve(n);
    if (slot_count_for(n) > slots_.size()) rehash(slot_count_for(n));
  }

  iterator find(const K& key) {
    const std::size_t s = find_slot(key);
    return s == kNotFound ? end() : dense_.begin() + slots_[s];
  }
  const_iterator find(const K& key) const {
    const std::size_t s = find_slot(key);
    return s == kNotFound ? end() : dense_.begin() + slots_[s];
  }

  bool contains(const K& key) const { return find_slot(key) != kNotFound; }
  std::size_t count(const K& key) const { return contains(key) ? 1 : 0; }

  V& at(const K& key) {
    const std::size_t s = find_slot(key);
    if (s == kNotFound) throw std::out_of_range("FlatMap::at");
    return dense_[slots_[s]].second;
  }
  const V& at(const K& key) const {
    const std::size_t s = find_slot(key);
    if (s == kNotFound) throw std::out_of_range("FlatMap::at");
    return dense_[slots_[s]].second;
  }

  /// Inserts default-constructed V if absent.
  V& operator[](const K& key) { return try_emplace(key).first->second; }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    grow_if_needed();
    std::size_t s = probe_home(key);
    while (slots_[s] != kEmpty) {
      if (dense_[slots_[s]].first == key) {
        return {dense_.begin() + slots_[s], false};
      }
      s = (s + 1) & mask();
    }
    slots_[s] = static_cast<std::uint32_t>(dense_.size());
    dense_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {dense_.end() - 1, true};
  }

  template <typename U>
  std::pair<iterator, bool> emplace(const K& key, U&& value) {
    return try_emplace(key, std::forward<U>(value));
  }
  std::pair<iterator, bool> insert(value_type kv) {
    return try_emplace(std::move(kv.first), std::move(kv.second));
  }

  std::size_t erase(const K& key) {
    const std::size_t s = find_slot(key);
    if (s == kNotFound) return 0;
    erase_at_slot(s);
    return 1;
  }

  /// Erases the entry `it` points at. Invalidates iterators (the last
  /// dense entry moves into the hole).
  void erase(const_iterator it) {
    assert(it >= dense_.begin() && it < dense_.end());
    const std::size_t s = find_slot(it->first);
    assert(s != kNotFound);
    erase_at_slot(s);
  }

  /// In-place std::erase_if. Returns the number of erased entries.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    // Backwards so swap-with-last only moves entries already examined.
    for (std::size_t d = dense_.size(); d-- > 0;) {
      if (pred(const_cast<const value_type&>(dense_[d]))) {
        const std::size_t s = find_slot(dense_[d].first);
        assert(s != kNotFound);
        erase_at_slot(s);
        ++erased;
      }
    }
    return erased;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinSlots = 16;

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t probe_home(const K& key) const {
    return Hash{}(key) & mask();
  }

  static std::size_t slot_count_for(std::size_t n) {
    // Max load factor 0.7: slots >= n / 0.7, rounded up to a power of 2.
    std::size_t want = kMinSlots;
    while (want * 7 < n * 10) want <<= 1;
    return want;
  }

  std::size_t find_slot(const K& key) const {
    if (slots_.empty()) return kNotFound;
    std::size_t s = probe_home(key);
    while (slots_[s] != kEmpty) {
      if (dense_[slots_[s]].first == key) return s;
      s = (s + 1) & mask();
    }
    return kNotFound;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      slots_.assign(kMinSlots, kEmpty);
    } else if ((dense_.size() + 1) * 10 >= slots_.size() * 7) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(std::size_t new_slots) {
    slots_.assign(new_slots, kEmpty);
    for (std::size_t d = 0; d < dense_.size(); ++d) {
      std::size_t s = probe_home(dense_[d].first);
      while (slots_[s] != kEmpty) s = (s + 1) & mask();
      slots_[s] = static_cast<std::uint32_t>(d);
    }
  }

  void erase_at_slot(std::size_t s) {
    const std::uint32_t d = slots_[s];
    // Dense removal: swap-with-last, then repoint the slot that indexed
    // the moved (previously last) entry.
    const std::uint32_t last = static_cast<std::uint32_t>(dense_.size() - 1);
    if (d != last) {
      dense_[d] = std::move(dense_[last]);
      std::size_t ms = probe_home(dense_[d].first);
      while (slots_[ms] != last) ms = (ms + 1) & mask();
      slots_[ms] = d;
    }
    dense_.pop_back();
    // Backshift deletion: close the probe chain through s so lookups
    // never need tombstones.
    std::size_t hole = s;
    std::size_t next = s;
    while (true) {
      next = (next + 1) & mask();
      if (slots_[next] == kEmpty) break;
      const std::size_t home = probe_home(dense_[slots_[next]].first);
      // Shift back iff `next`'s probe distance from its home reaches the
      // hole (cyclic arithmetic).
      if (((next - home) & mask()) >= ((next - hole) & mask())) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole] = kEmpty;
  }

  std::vector<value_type> dense_;
  std::vector<std::uint32_t> slots_;  // dense index, or kEmpty
};

/// Open-addressing set: thin adapter over FlatMap with an empty payload.
template <typename K, typename Hash = FlatHash<K>>
class FlatSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  bool contains(const K& key) const { return map_.contains(key); }
  std::size_t count(const K& key) const { return map_.count(key); }

  /// Returns {ignored, inserted}; only `.second` is meaningful (there is
  /// no exposed iterator — the set is membership-only by design).
  std::pair<bool, bool> insert(const K& key) {
    return {true, map_.try_emplace(key).second};
  }
  std::size_t erase(const K& key) { return map_.erase(key); }

 private:
  struct Unit {};
  FlatMap<K, Unit, Hash> map_;
};

/// FlatIndex: the column-store variant of FlatMap. It owns only the
/// key→dense-row mapping; callers keep any number of parallel value
/// vectors ("columns") sized to rows() and indexed by the row numbers
/// this class hands out. Splitting the key index from the payload turns
/// a struct-per-node table into struct-of-arrays: scans touch only the
/// columns they need, and wide rarely-read state stops polluting the
/// cache lines of hot fields. Used by the SoA node tables (overlay nets,
/// HostBus) that have to hold 1M+ rows in RAM.
///
/// Same probing scheme and determinism contract as FlatMap: insertion-
/// order dense keys, swap-with-last erase (the displaced row index is
/// returned so every column can mirror the swap), power-of-two uint32
/// slot table, backshift deletion, max load 0.7.
template <typename K, typename Hash = FlatHash<K>>
class FlatIndex {
 public:
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  std::size_t rows() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  const std::vector<K>& keys() const { return keys_; }

  void clear() {
    keys_.clear();
    slots_.clear();
  }

  void reserve(std::size_t n) {
    keys_.reserve(n);
    if (slot_count_for(n) > slots_.size()) rehash(slot_count_for(n));
  }

  /// Row of `key`, or kNoRow.
  std::uint32_t find(const K& key) const {
    if (slots_.empty()) return kNoRow;
    std::size_t mask = slots_.size() - 1;
    std::size_t s = Hash{}(key) & mask;
    while (true) {
      std::uint32_t row = slots_[s];
      if (row == kNoRow) return kNoRow;
      if (keys_[row] == key) return row;
      s = (s + 1) & mask;
    }
  }

  bool contains(const K& key) const { return find(key) != kNoRow; }

  /// Row of `key`, inserting a fresh tail row if absent. `.second` is
  /// true on insertion — the caller must then emplace_back one value in
  /// every parallel column before the next index operation.
  std::pair<std::uint32_t, bool> insert(const K& key) {
    grow_if_needed();
    std::size_t mask = slots_.size() - 1;
    std::size_t s = Hash{}(key) & mask;
    while (true) {
      std::uint32_t row = slots_[s];
      if (row == kNoRow) {
        row = static_cast<std::uint32_t>(keys_.size());
        keys_.push_back(key);
        slots_[s] = row;
        return {row, true};
      }
      if (keys_[row] == key) return {row, false};
      s = (s + 1) & mask;
    }
  }

  /// Erases `key` by swapping its row with the last row. Returns
  /// {erased_row, moved_row}: the caller must replay the same swap on
  /// every column (move column[moved_row] into column[erased_row], then
  /// pop). moved_row == kNoRow when the erased row was already last (or
  /// the key was absent — then erased_row is kNoRow too).
  std::pair<std::uint32_t, std::uint32_t> erase(const K& key) {
    if (slots_.empty()) return {kNoRow, kNoRow};
    std::size_t mask = slots_.size() - 1;
    std::size_t s = Hash{}(key) & mask;
    while (true) {
      std::uint32_t row = slots_[s];
      if (row == kNoRow) return {kNoRow, kNoRow};
      if (keys_[row] == key) break;
      s = (s + 1) & mask;
    }
    std::uint32_t row = slots_[s];
    std::uint32_t last = static_cast<std::uint32_t>(keys_.size() - 1);
    std::uint32_t moved = kNoRow;
    if (row != last) {
      keys_[row] = std::move(keys_[last]);
      // Redirect the slot of the displaced (previously last) key.
      std::size_t t = Hash{}(keys_[row]) & mask;
      while (slots_[t] != last) t = (t + 1) & mask;
      slots_[t] = row;
      moved = last;
    }
    keys_.pop_back();
    // Backshift deletion from the erased key's slot.
    std::size_t hole = s;
    std::size_t probe = (s + 1) & mask;
    while (true) {
      std::uint32_t r = slots_[probe];
      if (r == kNoRow) break;
      std::size_t home = Hash{}(keys_[r]) & mask;
      bool movable = ((probe - home) & mask) >= ((probe - hole) & mask);
      if (movable) {
        slots_[hole] = r;
        hole = probe;
      }
      probe = (probe + 1) & mask;
    }
    slots_[hole] = kNoRow;
    return {row, moved};
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  static std::size_t slot_count_for(std::size_t n) {
    std::size_t want = kMinSlots;
    // Max load 0.7: slots >= n / 0.7.
    while (want * 7 < n * 10) want <<= 1;
    return want;
  }

  void grow_if_needed() {
    if (slots_.empty() || (keys_.size() + 1) * 10 > slots_.size() * 7) {
      std::size_t want = slot_count_for(keys_.size() + 1);
      rehash(want < 2 * slots_.size() ? 2 * slots_.size() : want);
    }
  }

  void rehash(std::size_t count) {
    if (count < kMinSlots) count = kMinSlots;
    slots_.assign(count, kNoRow);
    std::size_t mask = count - 1;
    for (std::uint32_t row = 0; row < keys_.size(); ++row) {
      std::size_t s = Hash{}(keys_[row]) & mask;
      while (slots_[s] != kNoRow) s = (s + 1) & mask;
      slots_[s] = row;
    }
  }

  std::vector<K> keys_;               // dense, insertion order
  std::vector<std::uint32_t> slots_;  // row index, or kNoRow
};

/// SpanArena: bump storage for the per-node neighbor tables. A 1M-node
/// oracle overlay holds one entries array per node; as individual
/// std::vectors that is a million small heap blocks plus allocator
/// metadata. The arena packs them into one contiguous buffer and hands
/// out {offset, len} spans. Rewriting a node's table allocates a fresh
/// span and abandons the old one — tables rewrite rarely (join/fix
/// epochs), so the slack stays bounded while lookups get a flat, cache-
/// dense layout. compact() squeezes the slack out via a caller-driven
/// re-append pass when churn accumulates.
template <typename T>
class SpanArena {
 public:
  struct Span {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };

  void reserve(std::size_t n) { data_.reserve(n); }
  std::size_t size() const { return data_.size(); }
  std::size_t live(const Span& s) const { return s.len; }

  /// Appends n copies of `v`; returns the span.
  Span append_fill(std::size_t n, const T& v) {
    Span s;
    s.off = static_cast<std::uint32_t>(data_.size());
    s.len = static_cast<std::uint32_t>(n);
    data_.insert(data_.end(), n, v);
    return s;
  }

  /// Copies [first, last) into the arena; returns its span.
  template <typename It>
  Span append(It first, It last) {
    Span s;
    s.off = static_cast<std::uint32_t>(data_.size());
    s.len = static_cast<std::uint32_t>(std::distance(first, last));
    data_.insert(data_.end(), first, last);
    return s;
  }

  const T* begin(const Span& s) const { return data_.data() + s.off; }
  const T* end(const Span& s) const { return data_.data() + s.off + s.len; }
  T* begin(const Span& s) { return data_.data() + s.off; }
  T* end(const Span& s) { return data_.data() + s.off + s.len; }

  void clear() { data_.clear(); }

 private:
  std::vector<T> data_;
};

}  // namespace cam
