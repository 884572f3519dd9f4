// FlatMap/FlatSet/FlatIndex: randomized insert/erase/rehash churn
// against std::unordered_map/set oracles, plus the determinism and API
// guarantees the protocol stack relies on (insertion-order iteration,
// member erase_if, move-only values, row swaps a column can replay).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/flat_table.h"
#include "util/rng.h"

namespace cam {
namespace {

TEST(FlatMap, BasicInsertFindErase) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), m.end());

  m[7] = 70;
  m[9] = 90;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(7), m.end());
  EXPECT_EQ(m.find(7)->second, 70);
  EXPECT_EQ(m.at(9), 90);
  EXPECT_TRUE(m.contains(7));
  EXPECT_EQ(m.count(9), 1u);
  EXPECT_EQ(m.count(8), 0u);

  EXPECT_EQ(m.erase(7), 1u);
  EXPECT_EQ(m.erase(7), 0u);
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_EQ(m.size(), 1u);
  EXPECT_THROW(m.at(7), std::out_of_range);
}

TEST(FlatMap, TryEmplaceSemanticsMatchStd) {
  FlatMap<int, std::string> m;
  auto [it1, fresh1] = m.try_emplace(1, "one");
  EXPECT_TRUE(fresh1);
  EXPECT_EQ(it1->second, "one");
  auto [it2, fresh2] = m.try_emplace(1, "uno");
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(it2->second, "one") << "try_emplace must not overwrite";
  auto [it3, fresh3] = m.emplace(2, "two");
  EXPECT_TRUE(fresh3);
  EXPECT_EQ(it3->second, "two");
}

TEST(FlatMap, MoveOnlyValues) {
  FlatMap<int, std::unique_ptr<int>> m;
  m.try_emplace(1, std::make_unique<int>(10));
  m.emplace(2, std::make_unique<int>(20));
  ASSERT_NE(m.find(1), m.end());
  EXPECT_EQ(*m.at(1), 10);
  EXPECT_EQ(m.erase(1), 1u);
  EXPECT_EQ(*m.at(2), 20);
}

TEST(FlatMap, IterationIsInsertionOrder) {
  FlatMap<std::uint64_t, int> m;
  // Keys chosen adversarially (clustered + spread); order must still be
  // pure insertion order, independent of hashing.
  const std::uint64_t keys[] = {1000, 3, 999999937, 4, 1001, 5, 1 << 20};
  int v = 0;
  for (std::uint64_t k : keys) m[k] = v++;
  std::vector<std::uint64_t> seen;
  for (const auto& [k, val] : m) seen.push_back(k);
  EXPECT_EQ(seen, std::vector<std::uint64_t>(std::begin(keys), std::end(keys)));
}

TEST(FlatMap, EraseIsSwapWithLastDeterministic) {
  FlatMap<int, int> m;
  for (int i = 0; i < 6; ++i) m[i] = i;
  m.erase(1);  // last entry (5) moves into slot 1
  std::vector<int> seen;
  for (const auto& [k, v] : m) seen.push_back(k);
  EXPECT_EQ(seen, (std::vector<int>{0, 5, 2, 3, 4}));
}

TEST(FlatMap, MemberEraseIf) {
  FlatMap<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i;
  const std::size_t erased =
      m.erase_if([](const auto& kv) { return kv.first % 3 == 0; });
  EXPECT_EQ(erased, 34u);
  EXPECT_EQ(m.size(), 66u);
  for (const auto& [k, v] : m) {
    EXPECT_NE(k % 3, 0);
    EXPECT_EQ(k, v);
  }
}

TEST(FlatMap, ChurnAgainstUnorderedMapOracle) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(42);
  // Mixed workload across several rehash boundaries: a bounded keyspace
  // so erases actually hit, with bursts of growth and shrink.
  for (int round = 0; round < 50'000; ++round) {
    const std::uint64_t key = rng.next_below(2048);
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // insert-or-assign
        m[key] = round;
        oracle[key] = static_cast<std::uint64_t>(round);
        break;
      }
      case 4:
      case 5: {  // try_emplace (no overwrite)
        auto a = m.try_emplace(key, round);
        auto b = oracle.try_emplace(key, round);
        ASSERT_EQ(a.second, b.second);
        break;
      }
      case 6:
      case 7: {  // erase
        ASSERT_EQ(m.erase(key), oracle.erase(key));
        break;
      }
      case 8: {  // lookup
        auto it = m.find(key);
        auto jt = oracle.find(key);
        ASSERT_EQ(it == m.end(), jt == oracle.end());
        if (jt != oracle.end()) {
          ASSERT_EQ(it->second, jt->second);
        }
        break;
      }
      default: {  // occasional bulk erase_if
        if (round % 977 == 0) {
          const std::uint64_t bit = rng.next_below(2);
          auto pred_m = [&](const auto& kv) { return kv.first % 2 == bit; };
          const std::size_t a = m.erase_if(pred_m);
          const std::size_t b = std::erase_if(oracle, pred_m);
          ASSERT_EQ(a, b);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), oracle.size());
  }
  // Full-content equivalence at the end.
  for (const auto& [k, v] : m) {
    auto jt = oracle.find(k);
    ASSERT_NE(jt, oracle.end());
    ASSERT_EQ(v, jt->second);
  }
}

TEST(FlatMap, SurvivesAdversarialProbeClusters) {
  // Sequential keys hash to scattered slots, but identical low bits after
  // masking can still cluster; drive long probe chains + backshift by
  // filling, erasing every other key, and reinserting.
  FlatMap<std::uint64_t, int> m;
  constexpr int kN = 10'000;
  for (int i = 0; i < kN; ++i) m[i] = i;
  for (int i = 0; i < kN; i += 2) EXPECT_EQ(m.erase(i), 1u);
  for (int i = 1; i < kN; i += 2) {
    ASSERT_TRUE(m.contains(i));
    ASSERT_EQ(m.at(i), i);
  }
  for (int i = 0; i < kN; i += 2) m[i] = -i;
  EXPECT_EQ(m.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(m.at(i), i % 2 == 1 ? i : -i);
  }
}

TEST(FlatMap, ClearAndReuse) {
  FlatMap<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), m.end());
  m[5] = 50;
  EXPECT_EQ(m.at(5), 50);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, ReserveAvoidsRehashInvalidation) {
  FlatMap<int, int> m;
  m.reserve(1000);
  for (int i = 0; i < 1000; ++i) m[i] = i;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(m.at(i), i);
}

TEST(FlatSet, InsertEraseContains) {
  FlatSet<std::uint64_t> s;
  EXPECT_TRUE(s.insert(5).second);
  EXPECT_FALSE(s.insert(5).second);
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.erase(5), 1u);
  EXPECT_EQ(s.erase(5), 0u);
  EXPECT_FALSE(s.contains(5));
  EXPECT_TRUE(s.empty());
}

TEST(FlatSet, ChurnAgainstUnorderedSetOracle) {
  FlatSet<std::uint64_t> s;
  std::unordered_set<std::uint64_t> oracle;
  Rng rng(7);
  for (int round = 0; round < 20'000; ++round) {
    const std::uint64_t key = rng.next_below(512);
    if (rng.next_below(2) == 0) {
      ASSERT_EQ(s.insert(key).second, oracle.insert(key).second);
    } else {
      ASSERT_EQ(s.erase(key), oracle.erase(key));
    }
    ASSERT_EQ(s.size(), oracle.size());
  }
  for (std::uint64_t k = 0; k < 512; ++k) {
    ASSERT_EQ(s.contains(k), oracle.count(k) == 1);
  }
}

TEST(FlatIndex, ChurnMirrorsColumnsAgainstOracle) {
  // The column-store contract: a caller keeps a value column indexed by
  // row and replays every erase's {erased_row, moved_row} on it.
  using Index = FlatIndex<std::uint64_t>;
  constexpr std::uint64_t kKeys = 512;
  Index index;
  std::vector<std::uint64_t> column;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(11);
  for (int round = 0; round < 20'000; ++round) {
    const std::uint64_t key = rng.next_below(kKeys);
    const auto value = static_cast<std::uint64_t>(round);
    if (rng.next_below(2) == 0) {
      const auto [row, inserted] = index.insert(key);
      ASSERT_EQ(inserted, oracle.try_emplace(key, value).second);
      if (inserted) {
        ASSERT_EQ(row, column.size());
        column.push_back(value);
      }
      ASSERT_EQ(index.keys()[row], key);
    } else {
      const auto [erased, moved] = index.erase(key);
      ASSERT_EQ(erased != Index::kNoRow, oracle.erase(key) == 1);
      if (erased == Index::kNoRow) {
        ASSERT_EQ(moved, Index::kNoRow);
      } else {
        // moved_row is the old last row, unless the erased row was last.
        ASSERT_EQ(moved == Index::kNoRow ? erased : moved, column.size() - 1);
        if (moved != Index::kNoRow) column[erased] = column[moved];
        column.pop_back();
      }
    }
    ASSERT_EQ(index.rows(), oracle.size());
    ASSERT_EQ(column.size(), index.rows());
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const std::uint32_t row = index.find(k);
      const auto it = oracle.find(k);
      if (it == oracle.end()) {
        ASSERT_EQ(row, Index::kNoRow) << "round " << round << " key " << k;
      } else {
        ASSERT_NE(row, Index::kNoRow) << "round " << round << " key " << k;
        ASSERT_EQ(index.keys()[row], k);
        ASSERT_EQ(column[row], it->second);
      }
    }
  }
}

}  // namespace
}  // namespace cam
