#include "sim/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace nicmcast::sim {
namespace {

TEST(FlatMap, StartsEmpty) {
  FlatMap<std::uint64_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(42), map.end());
  EXPECT_FALSE(map.contains(0));
  EXPECT_EQ(map.begin(), map.end());
}

TEST(FlatMap, BasicInsertFindErase) {
  FlatMap<std::uint32_t, std::string> map;
  auto [it, inserted] = map.emplace(7, "seven");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 7u);
  EXPECT_EQ(it->second, "seven");

  auto [dup, inserted2] = map.emplace(7, "again");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(dup->second, "seven");  // emplace does not overwrite

  map[9] = "nine";
  EXPECT_EQ(map.at(9), "nine");
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.count(7), 1u);
  EXPECT_EQ(map.erase(7), 1u);
  EXPECT_EQ(map.erase(7), 0u);
  EXPECT_EQ(map.find(7), map.end());
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, KeyZeroIsAnOrdinaryKey) {
  // NodeId 0 / GroupId 0 are valid NIC identifiers, so the empty-bucket
  // encoding must not steal key 0.
  FlatMap<std::uint32_t, int> map;
  map[0] = 10;
  EXPECT_TRUE(map.contains(0));
  EXPECT_EQ(map.at(0), 10);
  EXPECT_EQ(map.erase(0), 1u);
  EXPECT_FALSE(map.contains(0));
}

TEST(FlatMap, ReferencesStableAcrossGrowth) {
  // NIC callbacks hold GroupState& across scheduling calls that can insert
  // into the same map; the chunked pool must never move an entry.
  FlatMap<std::uint64_t, std::uint64_t> map;
  map[1] = 100;
  std::uint64_t* p = &map.at(1);
  for (std::uint64_t k = 2; k < 2000; ++k) map[k] = k;
  EXPECT_GT(map.growths(), 0u);
  EXPECT_EQ(p, &map.at(1));  // same slab slot after many rehashes
  EXPECT_EQ(*p, 100u);
}

TEST(FlatMap, RandomizedParityWithUnorderedMap) {
  // Mixed insert/overwrite/erase/lookup churn; after every batch the
  // observable contents must equal std::unordered_map's.
  std::mt19937_64 rng(2026);
  FlatMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t key = rng() % 512;  // collisions on purpose
    switch (rng() % 4) {
      case 0:
      case 1: {  // insert-or-assign path via operator[]
        const std::uint64_t value = rng();
        map[key] = value;
        ref[key] = value;
        break;
      }
      case 2:
        ASSERT_EQ(map.erase(key), ref.erase(key));
        break;
      default: {
        const auto it = map.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(it == map.end(), rit == ref.end()) << "key " << key;
        if (it != map.end()) {
          ASSERT_EQ(it->first, rit->first);
          ASSERT_EQ(it->second, rit->second);
        }
        break;
      }
    }
  }
  ASSERT_EQ(map.size(), ref.size());
  std::size_t seen = 0;
  for (const auto& [key, value] : map) {
    const auto rit = ref.find(key);
    ASSERT_NE(rit, ref.end()) << "phantom key " << key;
    ASSERT_EQ(value, rit->second);
    ++seen;
  }
  ASSERT_EQ(seen, ref.size());
}

TEST(FlatMap, PoolSlotsReusedAfterChurn) {
  // A fill/drain/refill cycle of the same cardinality must reuse freed
  // pool slots instead of growing: entry addresses from the first
  // generation come back, and no further rehash happens.
  FlatMap<std::uint64_t, int> map;
  map.reserve(256);
  const std::uint64_t growths_after_reserve = map.growths();
  std::vector<const int*> first_gen;
  for (std::uint64_t k = 0; k < 256; ++k) map[k] = 1;
  for (std::uint64_t k = 0; k < 256; ++k) first_gen.push_back(&map.at(k));
  std::sort(first_gen.begin(), first_gen.end());
  for (std::uint64_t k = 0; k < 256; ++k) map.erase(k);
  EXPECT_TRUE(map.empty());
  for (std::uint64_t k = 1000; k < 1256; ++k) map[k] = 2;

  std::vector<const int*> second_gen;
  for (std::uint64_t k = 1000; k < 1256; ++k) second_gen.push_back(&map.at(k));
  std::sort(second_gen.begin(), second_gen.end());
  EXPECT_EQ(first_gen, second_gen);  // byte-identical slab reuse
  EXPECT_EQ(map.growths(), growths_after_reserve);
}

TEST(FlatMap, EraseDuringProbeChainBackwardShift) {
  // Dense small-range keys force long probe chains; erasing from the middle
  // must keep every other key reachable (backward-shift correctness).
  FlatMap<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t k = 0; k < 64; ++k) map[k] = k * 3;
  for (std::uint32_t k = 0; k < 64; k += 2) EXPECT_EQ(map.erase(k), 1u);
  for (std::uint32_t k = 0; k < 64; ++k) {
    if (k % 2 == 0) {
      EXPECT_FALSE(map.contains(k)) << k;
    } else {
      ASSERT_TRUE(map.contains(k)) << k;
      EXPECT_EQ(map.at(k), k * 3);
    }
  }
}

TEST(FlatMap, IterationOrderIsInsertionOrderNotHashOrder) {
  // The determinism contract bans hash-order iteration; FlatMap iterates in
  // insertion order, which no hash seed can perturb.  Erase + reinsert
  // moves a key to the back, exactly like a fresh insertion.
  FlatMap<std::uint64_t, int> map;
  const std::vector<std::uint64_t> keys = {900, 3, 512, 77, 0, 41};
  for (std::uint64_t k : keys) map[k] = 1;
  std::vector<std::uint64_t> order;
  for (const auto& [key, value] : map) order.push_back(key);
  EXPECT_EQ(order, keys);

  map.erase(3);
  map[3] = 2;
  order.clear();
  for (const auto& [key, value] : map) order.push_back(key);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{900, 512, 77, 0, 41, 3}));
}

TEST(FlatMap, IterationOrderSurvivesRehash) {
  // Growth reinserts in insertion order; interleave erases so the order is
  // not simply 0..n, then grow past several rehashes and re-check.
  FlatMap<std::uint64_t, int> map;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t k = 0; k < 500; ++k) {
    map[k] = 1;
    expected.push_back(k);
  }
  for (std::uint64_t k = 0; k < 500; k += 7) {
    map.erase(k);
    expected.erase(std::find(expected.begin(), expected.end(), k));
  }
  for (std::uint64_t k = 1000; k < 1300; ++k) {
    map[k] = 1;
    expected.push_back(k);
  }
  std::vector<std::uint64_t> order;
  for (const auto& [key, value] : map) order.push_back(key);
  EXPECT_EQ(order, expected);
}

TEST(FlatMap, EraseByIteratorReturnsNext) {
  FlatMap<std::uint32_t, int> map;
  for (std::uint32_t k = 10; k < 15; ++k) map[k] = static_cast<int>(k);
  auto it = map.find(12);
  ASSERT_NE(it, map.end());
  it = map.erase(it);
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->first, 13u);  // insertion-order successor
  EXPECT_EQ(map.size(), 4u);
}

TEST(FlatMap, ReserveDoesNotCountAsGrowth) {
  FlatMap<std::uint64_t, int> map;
  std::uint64_t external = 0;
  map.bind_growth_counter(&external);
  map.reserve(1000);
  EXPECT_EQ(map.growths(), 0u);
  EXPECT_EQ(external, 0u);
  for (std::uint64_t k = 0; k < 1000; ++k) map[k] = 1;
  EXPECT_EQ(map.growths(), 0u);  // reserve covered the whole load
  EXPECT_EQ(external, 0u);
  for (std::uint64_t k = 1000; k < 4000; ++k) map[k] = 1;
  EXPECT_GT(map.growths(), 0u);
  EXPECT_EQ(external, map.growths());
}

TEST(FlatMap, ClearThenReuse) {
  FlatMap<std::uint64_t, std::string> map;
  // Move-assign a std::string rather than assign a literal: GCC 12 at -O3
  // reports a false -Wrestrict inside string::operator=(const char*) here.
  for (std::uint64_t k = 0; k < 100; ++k) map[k] = std::string("x");
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.begin(), map.end());
  map[5] = "y";
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.at(5), "y");
}

}  // namespace
}  // namespace nicmcast::sim
