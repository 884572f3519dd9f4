// Open-addressing hash containers for the protocol hot path.
//
// FlatMap/FlatSet replace std::unordered_map/set in the per-node tables
// the async protocol stack touches on every event (RPC pending tables,
// stream dedup windows, failure-suspect lists, host dispatch), and
// FlatIndex maps keys to the rows of the struct-of-arrays node tables.
// The node-based std containers pay one heap allocation per insert and a
// pointer chase per lookup. All three are built on one core,
// detail::DenseIndex, which stores entries contiguously:
//
//   * a dense std::vector of entries in insertion order (erase is
//     swap-with-last), which makes iteration cache-linear AND
//     deterministic — no dependence on hash-bucket layout, so simulation
//     outputs cannot drift with the standard library's bucket policy;
//   * a power-of-two slot table of uint32 rows into the dense array,
//     linear probing, backshift deletion (no tombstones), max load 0.7.
//
// Determinism note for this codebase: the containers swapped to FlatMap
// hold per-node protocol state whose iteration is never observable
// without an explicit sort (audited in tests/engine_golden_test.cpp's
// byte-identity goldens). The dense layout makes that robust rather
// than incidental.
//
// bench/micro_ops.cpp measures these against the std containers;
// tests/flat_table_test.cpp churns them against unordered_map oracles.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <tuple>
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

namespace detail {

inline constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

/// Key projections for DenseIndex entries.
struct KeyIsFirst {
  template <typename K, typename V>
  const K& operator()(const std::pair<K, V>& e) const { return e.first; }
};
struct KeyIsEntry {
  template <typename K>
  const K& operator()(const K& k) const { return k; }
};

/// The one probing scheme behind FlatMap, FlatIndex and FlatSet: dense
/// entries in insertion order plus a power-of-two slot table holding
/// each entry's row (or kNoRow). Erase moves the last row into the hole,
/// so rows and iteration order depend only on the sequence of inserts
/// and erases, never on the slot table's size. The slot table doubles
/// when (size + 1) * 10 > slots * 7, so reserve(n) admits n inserts
/// without a rehash; clear() keeps it allocated.
template <typename Entry, typename K, typename KeyOf, typename Hash>
class DenseIndex {
 public:
  std::vector<Entry>& entries() { return dense_; }
  const std::vector<Entry>& entries() const { return dense_; }

  void clear() {
    dense_.clear();
    std::fill(slots_.begin(), slots_.end(), kNoRow);
  }

  void reserve(std::size_t n) {
    dense_.reserve(n);
    if (slot_count_for(n) > slots_.size()) rehash(slot_count_for(n));
  }

  /// Row of `key`, or kNoRow.
  std::uint32_t find(const K& key) const {
    return slots_.empty() ? kNoRow : slots_[probe(key)];
  }

  /// Row of `key`. If absent, Entry(args...) is appended as a new last
  /// row and `.second` is true.
  template <typename... Args>
  std::pair<std::uint32_t, bool> try_emplace(const K& key, Args&&... args) {
    if ((dense_.size() + 1) * 10 > slots_.size() * 7) {
      rehash(std::max(kMinSlots, 2 * slots_.size()));
    }
    const std::size_t s = probe(key);
    if (slots_[s] != kNoRow) return {slots_[s], false};
    const auto row = static_cast<std::uint32_t>(dense_.size());
    dense_.emplace_back(std::forward<Args>(args)...);
    slots_[s] = row;
    return {row, true};
  }

  /// Erases `key` by moving the last row into its row. Returns
  /// {erased_row, moved_row}: moved_row is kNoRow when the erased row was
  /// already last, and both are kNoRow when `key` is absent.
  std::pair<std::uint32_t, std::uint32_t> erase(const K& key) {
    if (slots_.empty()) return {kNoRow, kNoRow};
    const std::size_t s = probe(key);
    const std::uint32_t row = slots_[s];
    if (row == kNoRow) return {kNoRow, kNoRow};
    const auto last = static_cast<std::uint32_t>(dense_.size() - 1);
    std::uint32_t moved = kNoRow;
    if (row != last) {
      // Repoint the slot that indexed the moved (previously last) entry.
      dense_[row] = std::move(dense_[last]);
      std::size_t t = home(KeyOf{}(dense_[row]));
      while (slots_[t] != last) t = (t + 1) & mask();
      slots_[t] = row;
      moved = last;
    }
    dense_.pop_back();
    // Backshift deletion: close the probe chain through s so lookups
    // never need tombstones.
    std::size_t hole = s;
    for (std::size_t next = (s + 1) & mask(); slots_[next] != kNoRow;
         next = (next + 1) & mask()) {
      const std::size_t h = home(KeyOf{}(dense_[slots_[next]]));
      // Shift back iff `next`'s probe distance from its home reaches the
      // hole (cyclic arithmetic).
      if (((next - h) & mask()) >= ((next - hole) & mask())) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole] = kNoRow;
    return {row, moved};
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  /// Smallest power-of-two slot count (at least kMinSlots) that holds n
  /// entries at load <= 0.7.
  static std::size_t slot_count_for(std::size_t n) {
    std::size_t want = kMinSlots;
    while (want * 7 < n * 10) want <<= 1;
    return want;
  }

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(const K& key) const { return Hash{}(key) & mask(); }

  /// The slot holding `key`'s row, or the empty slot its probe ends at.
  /// The slot table must not be empty.
  std::size_t probe(const K& key) const {
    std::size_t s = home(key);
    while (slots_[s] != kNoRow && !(KeyOf{}(dense_[slots_[s]]) == key)) {
      s = (s + 1) & mask();
    }
    return s;
  }

  void rehash(std::size_t count) {
    slots_.assign(count, kNoRow);
    for (std::size_t row = 0; row < dense_.size(); ++row) {
      std::size_t s = home(KeyOf{}(dense_[row]));
      while (slots_[s] != kNoRow) s = (s + 1) & mask();
      slots_[s] = static_cast<std::uint32_t>(row);
    }
  }

  std::vector<Entry> dense_;
  std::vector<std::uint32_t> slots_;  // row, or kNoRow
};

}  // namespace detail

/// Open-addressing map: DenseIndex over std::pair<K, V>. API is the used
/// subset of std::unordered_map, plus a member erase_if (the free
/// std::erase_if can't see the slot table).
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;

  std::size_t size() const { return core_.entries().size(); }
  bool empty() const { return core_.entries().empty(); }

  iterator begin() { return core_.entries().begin(); }
  iterator end() { return core_.entries().end(); }
  const_iterator begin() const { return core_.entries().begin(); }
  const_iterator end() const { return core_.entries().end(); }

  void clear() { core_.clear(); }
  void reserve(std::size_t n) { core_.reserve(n); }

  iterator find(const K& key) {
    const std::uint32_t row = core_.find(key);
    return row == detail::kNoRow ? end() : begin() + row;
  }
  const_iterator find(const K& key) const {
    const std::uint32_t row = core_.find(key);
    return row == detail::kNoRow ? end() : begin() + row;
  }

  bool contains(const K& key) const {
    return core_.find(key) != detail::kNoRow;
  }
  std::size_t count(const K& key) const { return contains(key) ? 1 : 0; }

  V& at(const K& key) { return core_.entries()[row_at(key)].second; }
  const V& at(const K& key) const {
    return core_.entries()[row_at(key)].second;
  }

  /// Inserts default-constructed V if absent.
  V& operator[](const K& key) { return try_emplace(key).first->second; }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    const auto [row, inserted] = core_.try_emplace(
        key, std::piecewise_construct, std::forward_as_tuple(key),
        std::forward_as_tuple(std::forward<Args>(args)...));
    return {begin() + row, inserted};
  }

  template <typename U>
  std::pair<iterator, bool> emplace(const K& key, U&& value) {
    return try_emplace(key, std::forward<U>(value));
  }
  std::pair<iterator, bool> insert(value_type kv) {
    return try_emplace(std::move(kv.first), std::move(kv.second));
  }

  std::size_t erase(const K& key) {
    return core_.erase(key).first == detail::kNoRow ? 0 : 1;
  }

  /// Erases the entry `it` points at. Invalidates iterators (the last
  /// dense entry moves into the hole).
  void erase(const_iterator it) {
    assert(it >= begin() && it < end());
    core_.erase(it->first);
  }

  /// In-place std::erase_if. Returns the number of erased entries.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::vector<value_type>& dense = core_.entries();
    std::size_t erased = 0;
    // Backwards so swap-with-last only moves entries already examined.
    for (std::size_t d = dense.size(); d-- > 0;) {
      if (pred(std::as_const(dense[d]))) {
        core_.erase(dense[d].first);
        ++erased;
      }
    }
    return erased;
  }

 private:
  std::uint32_t row_at(const K& key) const {
    const std::uint32_t row = core_.find(key);
    if (row == detail::kNoRow) throw std::out_of_range("FlatMap::at");
    return row;
  }

  detail::DenseIndex<value_type, K, detail::KeyIsFirst, Hash> core_;
};

/// FlatIndex: the column-store variant of FlatMap, a DenseIndex over bare
/// keys. It owns only the key→dense-row mapping; callers keep any number
/// of parallel value vectors ("columns") sized to rows() and indexed by
/// the row numbers this class hands out. Splitting the key index from the
/// payload turns a struct-per-node table into struct-of-arrays: scans
/// touch only the columns they need, and wide rarely-read state stops
/// polluting the cache lines of hot fields. Used by the overlay nets'
/// SoA node tables, which have to hold 1M+ rows in RAM, and by the
/// CapacityLedger's node rows.
template <typename K, typename Hash = FlatHash<K>>
class FlatIndex {
 public:
  static constexpr std::uint32_t kNoRow = detail::kNoRow;

  std::size_t rows() const { return core_.entries().size(); }
  bool empty() const { return core_.entries().empty(); }
  const std::vector<K>& keys() const { return core_.entries(); }

  void clear() { core_.clear(); }
  void reserve(std::size_t n) { core_.reserve(n); }

  /// Row of `key`, or kNoRow.
  std::uint32_t find(const K& key) const { return core_.find(key); }
  bool contains(const K& key) const { return find(key) != kNoRow; }

  /// Row of `key`, inserting a fresh tail row if absent. `.second` is
  /// true on insertion — the caller must then emplace_back one value in
  /// every parallel column before the next index operation.
  std::pair<std::uint32_t, bool> insert(const K& key) {
    return core_.try_emplace(key, key);
  }

  /// Erases `key` by swapping its row with the last row. Returns
  /// {erased_row, moved_row}: the caller must replay the same swap on
  /// every column (move column[moved_row] into column[erased_row], then
  /// pop). moved_row == kNoRow when the erased row was already last (or
  /// the key was absent — then erased_row is kNoRow too).
  std::pair<std::uint32_t, std::uint32_t> erase(const K& key) {
    return core_.erase(key);
  }

 private:
  detail::DenseIndex<K, K, detail::KeyIsEntry, Hash> core_;
};

/// Open-addressing set: thin adapter over FlatIndex, one K per member.
template <typename K, typename Hash = FlatHash<K>>
class FlatSet {
 public:
  std::size_t size() const { return index_.rows(); }
  bool empty() const { return index_.empty(); }
  void clear() { index_.clear(); }
  void reserve(std::size_t n) { index_.reserve(n); }

  bool contains(const K& key) const { return index_.contains(key); }
  std::size_t count(const K& key) const { return contains(key) ? 1 : 0; }

  /// Returns {ignored, inserted}; only `.second` is meaningful (there is
  /// no exposed iterator — the set is membership-only by design).
  std::pair<bool, bool> insert(const K& key) {
    return {true, index_.insert(key).second};
  }
  std::size_t erase(const K& key) {
    return index_.erase(key).first == detail::kNoRow ? 0 : 1;
  }

 private:
  FlatIndex<K, Hash> index_;
};

/// SpanArena: bump storage for the per-node neighbor tables. A 1M-node
/// oracle overlay holds one entries array per node; as individual
/// std::vectors that is a million small heap blocks plus allocator
/// metadata. The arena packs them into one contiguous buffer and hands
/// out {offset, len} spans. Rewriting a node's table allocates a fresh
/// span and abandons the old one — tables rewrite rarely (join/fix
/// epochs), so the slack stays bounded while lookups get a flat, cache-
/// dense layout.
template <typename T>
class SpanArena {
 public:
  struct Span {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };

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
  T* begin(const Span& s) { return data_.data() + s.off; }

 private:
  std::vector<T> data_;
};

}  // namespace cam
