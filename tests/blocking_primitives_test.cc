// The two blocking primitives behind support recomputation and the
// sparse-neighborhood threshold, checked against plain references: the
// batched bitset InvertedIndex::Supports against a std::set_intersection
// chain, and ComputeMinThreshold at every pool size against a per-record
// std::unordered_set scan.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/block.h"
#include "blocking/neighborhood.h"
#include "data/inverted_index.h"
#include "data/item_dictionary.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yver {
namespace {

using data::ItemBag;
using data::ItemId;
using data::RecordIdx;

std::vector<RecordIdx> NaiveSupport(const data::InvertedIndex& index,
                                    const std::vector<ItemId>& itemset) {
  if (itemset.empty()) return {};
  std::vector<RecordIdx> result = index.Postings(itemset[0]);
  for (size_t k = 1; k < itemset.size(); ++k) {
    const auto& plist = index.Postings(itemset[k]);
    std::vector<RecordIdx> next;
    std::set_intersection(result.begin(), result.end(), plist.begin(),
                          plist.end(), std::back_inserter(next));
    result.swap(next);
  }
  return result;
}

// Bags over `alphabet` items with skewed frequencies: item k is drawn with
// probability ~1/(k+1), so postings range from most records to none.
std::vector<ItemBag> SkewedBags(util::Rng& rng, size_t num_bags,
                                size_t alphabet) {
  std::vector<ItemBag> bags(num_bags);
  for (auto& bag : bags) {
    for (ItemId item = 0; item < alphabet; ++item) {
      if (rng.UniformDouble() < 1.5 / (item + 1.0)) bag.push_back(item);
    }
  }
  return bags;
}

// Supports over the whole batch, serially and on pools of 1, 2 and 8, each
// checked itemset by itemset against the set_intersection chain.
void ExpectSupportsMatchOracle(const data::InvertedIndex& index,
                               const std::vector<std::vector<ItemId>>& batch,
                               const std::string& context) {
  std::vector<std::vector<RecordIdx>> serial = index.Supports(batch);
  ASSERT_EQ(serial.size(), batch.size()) << context;
  for (size_t i = 0; i < batch.size(); ++i) {
    std::string items;
    for (ItemId item : batch[i]) items += std::to_string(item) + " ";
    EXPECT_EQ(serial[i], NaiveSupport(index, batch[i]))
        << context << " itemset {" << items << "}";
  }
  for (size_t threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(index.Supports(batch, &pool), serial)
        << context << " threads " << threads;
  }
}

TEST(InvertedIndexSupportsTest, MatchesSetIntersectionOnRandomPostings) {
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t alphabet = 40;
    // Items >= alphabet - 5 are never drawn often; alphabet + 3 items in
    // the index leaves the last three with empty postings.
    std::vector<ItemBag> bags = SkewedBags(rng, 300, alphabet);
    data::InvertedIndex index(bags, alphabet + 3);
    std::vector<std::vector<ItemId>> batch;
    for (int q = 0; q < 200; ++q) {
      std::vector<ItemId> itemset;
      size_t len = static_cast<size_t>(rng.UniformInt(1, 6));
      for (size_t i = 0; i < len; ++i) {
        // Mostly frequent items so intersections are non-trivial; now and
        // then an item with empty postings.
        int64_t hi =
            rng.UniformDouble() < 0.05 ? static_cast<int64_t>(alphabet) + 2 : 12;
        itemset.push_back(static_cast<ItemId>(rng.UniformInt(0, hi)));
      }
      if (rng.UniformDouble() < 0.2) itemset.push_back(itemset[0]);
      std::sort(itemset.begin(), itemset.end());
      batch.push_back(std::move(itemset));
    }
    ExpectSupportsMatchOracle(index, batch, "trial " + std::to_string(trial));
  }
}

TEST(InvertedIndexSupportsTest, EdgeCases) {
  // Postings: 0 -> {0..39}, 1 -> {3, 60}, 2 -> {50, 99}, 3 -> {},
  // 4 -> every even record.
  std::vector<ItemBag> bags(100);
  for (RecordIdx r = 0; r < 40; ++r) bags[r].push_back(0);
  bags[3].push_back(1);
  bags[60].push_back(1);
  bags[50].push_back(2);
  bags[99].push_back(2);
  for (RecordIdx r = 0; r < 100; r += 2) bags[r].push_back(4);
  for (auto& bag : bags) std::sort(bag.begin(), bag.end());
  data::InvertedIndex index(bags, 5);

  const std::vector<std::vector<ItemId>> queries = {
      {},         // empty query
      {3},        // single item with empty postings
      {0, 3},     // empty postings beside a long list
      {1},        // single item
      {0},        // single long item
      {1, 1},     // duplicate items
      {0, 0, 4},  // duplicate of a non-rarest item
      {0, 2},     // rarest list starts after the other one ends
      {0, 1},     // rarest list outlasts the other after a match
      {0, 1, 4},  // three lists, match then exhaustion
      {2, 4},     // rarest list ends inside the other
      {4, 0},     // unsorted items
  };
  ExpectSupportsMatchOracle(index, queries, "edge cases");
  auto supports = index.Supports(queries);
  EXPECT_TRUE(supports[0].empty());
  EXPECT_TRUE(supports[7].empty());
  EXPECT_EQ(supports[8], (std::vector<RecordIdx>{3}));
  EXPECT_EQ(supports[5], (std::vector<RecordIdx>{3, 60}));
  EXPECT_TRUE(index.Supports({}).empty());
}

// The bitset walk's boundaries: rarest lists of exactly 64·k and 64·k + 1
// records (a full last word and a one-bit tail), duplicate and single
// items, and groups whose rarest item sits in nearly every record.
TEST(InvertedIndexSupportsTest, WordBoundariesAndFrequentRarestItems) {
  const RecordIdx n = 400;
  std::vector<ItemBag> bags(n);
  // Items 0..5: the first 64, 65, 128, 129, 192 and 193 records.
  const RecordIdx prefix_sizes[] = {64, 65, 128, 129, 192, 193};
  for (ItemId item = 0; item < 6; ++item) {
    for (RecordIdx r = 0; r < prefix_sizes[item]; ++r) bags[r].push_back(item);
  }
  // Items 6..8: nearly everywhere (all but every 7th, 11th, 13th record);
  // item 9: every record.
  const RecordIdx skip[] = {7, 11, 13};
  for (ItemId item = 6; item < 9; ++item) {
    for (RecordIdx r = 0; r < n; ++r) {
      if (r % skip[item - 6] != 0) bags[r].push_back(item);
    }
  }
  for (RecordIdx r = 0; r < n; ++r) bags[r].push_back(9);
  // Items 10..29: random, about half the records each.
  util::Rng rng(11);
  for (RecordIdx r = 0; r < n; ++r) {
    for (ItemId item = 10; item < 30; ++item) {
      if (rng.UniformDouble() < 0.5) bags[r].push_back(item);
    }
  }
  data::InvertedIndex index(bags, 30);

  std::vector<std::vector<ItemId>> batch = {
      {0},       {1},       {2},       {3},       {4},    {5},
      {0, 9},    {1, 9},    {3, 9},    {5, 9},    {9},    {9, 9},
      {6, 7},    {6, 7, 8}, {7, 8, 9}, {6, 6, 7}, {1, 1}, {5, 6, 7, 8, 9},
      {0, 1, 2}, {1, 3, 5}, {4, 10},   {5, 11, 12},
  };
  for (int q = 0; q < 300; ++q) {
    std::vector<ItemId> itemset;
    size_t len = static_cast<size_t>(rng.UniformInt(1, 5));
    for (size_t i = 0; i < len; ++i) {
      itemset.push_back(static_cast<ItemId>(rng.UniformInt(0, 29)));
    }
    if (rng.UniformDouble() < 0.2) itemset.push_back(itemset.back());
    batch.push_back(std::move(itemset));
  }
  ExpectSupportsMatchOracle(index, batch, "word boundaries");
}

// The pre-parallel scan: one neighbor hash set per record, blocks visited
// by (score desc, block index asc).
double ReferenceMinThreshold(const std::vector<blocking::Block>& blocks,
                             size_t num_records, double ng,
                             uint32_t minsup) {
  size_t cap = blocking::NgCap(ng, minsup);
  std::vector<std::vector<uint32_t>> record_blocks(num_records);
  for (uint32_t b = 0; b < blocks.size(); ++b) {
    for (RecordIdx r : blocks[b].records) record_blocks[r].push_back(b);
  }
  double min_th = 0.0;
  for (size_t r = 0; r < num_records; ++r) {
    auto& bs = record_blocks[r];
    if (bs.empty() ||
        (bs.size() == 1 && blocks[bs[0]].records.size() - 1 <= cap)) {
      continue;
    }
    std::sort(bs.begin(), bs.end(), [&blocks](uint32_t a, uint32_t b) {
      if (blocks[a].score != blocks[b].score) {
        return blocks[a].score > blocks[b].score;
      }
      return a < b;
    });
    std::unordered_set<RecordIdx> neighbors;
    for (uint32_t bi : bs) {
      size_t added = 0;
      for (RecordIdx other : blocks[bi].records) {
        if (other != r && !neighbors.count(other)) ++added;
      }
      if (neighbors.size() + added > cap) {
        min_th = std::max(min_th, blocks[bi].score);
        break;
      }
      for (RecordIdx other : blocks[bi].records) {
        if (other != r) neighbors.insert(other);
      }
    }
  }
  return min_th;
}

// Random overlapping blocks whose scores come from a handful of values, so
// most records see exact score ties.
std::vector<blocking::Block> TiedBlocks(util::Rng& rng, size_t num_blocks,
                                        size_t num_records) {
  static constexpr double kScores[] = {0.125, 0.25, 0.3, 0.5, 0.7};
  std::vector<blocking::Block> blocks(num_blocks);
  for (auto& block : blocks) {
    size_t size = static_cast<size_t>(rng.UniformInt(2, 6));
    while (block.records.size() < size) {
      RecordIdx r = static_cast<RecordIdx>(
          rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
      if (std::find(block.records.begin(), block.records.end(), r) ==
          block.records.end()) {
        block.records.push_back(r);
      }
    }
    std::sort(block.records.begin(), block.records.end());
    block.score = kScores[rng.UniformInt(0, 4)];
  }
  return blocks;
}

TEST(MinThresholdPoolTest, EveryPoolSizeMatchesSerialWithTies) {
  util::Rng rng(17);
  util::ThreadPool pool1(1);
  util::ThreadPool pool2(2);
  util::ThreadPool pool8(8);
  int nonzero = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const size_t num_records = 50 + static_cast<size_t>(trial) * 40;
    auto blocks = TiedBlocks(rng, num_records / 2 + trial * 10, num_records);
    const double ng = 1.0 + 0.5 * (trial % 4);
    const uint32_t minsup = 2 + static_cast<uint32_t>(trial % 3);
    const double serial =
        blocking::ComputeMinThreshold(blocks, num_records, ng, minsup);
    EXPECT_EQ(serial, ReferenceMinThreshold(blocks, num_records, ng, minsup))
        << "trial " << trial;
    for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      EXPECT_EQ(blocking::ComputeMinThreshold(blocks, num_records, ng, minsup,
                                              pool),
                serial)
          << "trial " << trial << " pool=" << pool->num_threads();
    }
    if (serial > 0.0) ++nonzero;
  }
  // The sweep must exercise the threshold, not just the no-violation path.
  EXPECT_GT(nonzero, 12);
}

TEST(MinThresholdPoolTest, EmptyAndSparseInputs) {
  util::ThreadPool pool(8);
  EXPECT_EQ(blocking::ComputeMinThreshold({}, 0, 2.0, 2, &pool), 0.0);
  EXPECT_EQ(blocking::ComputeMinThreshold({}, 10, 2.0, 2, &pool), 0.0);
  std::vector<blocking::Block> blocks(1);
  blocks[0].records = {0, 1};
  blocks[0].score = 0.9;
  // Fewer records than pool chunks.
  EXPECT_EQ(blocking::ComputeMinThreshold(blocks, 3, 1.0, 2, &pool), 0.0);
}

}  // namespace
}  // namespace yver
