// Order-exact equivalence of the production FP-Growth miners against the
// preserved pointer-node reference (tests/support/reference_fp_growth.*).
// Mining is part of the blocking determinism contract: MFIBlocks turns
// the mined itemsets into blocks in the order the miner returns them, and
// that order breaks the sparse-neighborhood ties, so the arena tree, the
// hash-free projection and the parallel maximality filter must return the
// same itemsets, in the same order, with the same supports, at every pool
// size.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/item_dictionary.h"
#include "mining/fp_growth.h"
#include "support/reference_fp_growth.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yver::mining {
namespace {

using data::ItemBag;
using data::ItemId;

// Random bags drawn around a few prototypes: every bag copies most of one
// prototype and adds a little noise, so the bags share long itemsets the
// way near-duplicate reports do, and the maximal sets of different ranks
// overlap heavily.
std::vector<ItemBag> ClusteredBags(uint64_t seed, size_t num_bags,
                                   size_t alphabet, size_t prototype_len,
                                   size_t num_prototypes) {
  util::Rng rng(seed);
  auto draw = [&] {
    return static_cast<ItemId>(
        rng.UniformInt(0, static_cast<int64_t>(alphabet) - 1));
  };
  std::vector<ItemBag> prototypes(num_prototypes);
  for (auto& proto : prototypes) {
    for (size_t i = 0; i < prototype_len; ++i) proto.push_back(draw());
  }
  std::vector<ItemBag> bags;
  for (size_t t = 0; t < num_bags; ++t) {
    const ItemBag& proto = prototypes[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(num_prototypes) - 1))];
    ItemBag bag;
    for (ItemId item : proto) {
      if (rng.UniformDouble() < 0.8) bag.push_back(item);
    }
    size_t noise = static_cast<size_t>(rng.UniformInt(0, 3));
    for (size_t i = 0; i < noise; ++i) bag.push_back(draw());
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
    bags.push_back(std::move(bag));
  }
  return bags;
}

std::vector<ItemBag> UniformBags(uint64_t seed, size_t num_bags,
                                 size_t alphabet, size_t max_len) {
  util::Rng rng(seed);
  std::vector<ItemBag> bags;
  for (size_t t = 0; t < num_bags; ++t) {
    ItemBag bag;
    size_t len = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(max_len)));
    for (size_t i = 0; i < len; ++i) {
      bag.push_back(static_cast<ItemId>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet) - 1)));
    }
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
    bags.push_back(std::move(bag));
  }
  return bags;
}

// MineMaximalItemsets at pool nullptr / 1 / 2 / 8 against the reference:
// the whole vector compared with ==, so contents, order and supports.
void ExpectMaximalMatchesReference(const std::vector<ItemBag>& bags,
                                   const MinerOptions& options,
                                   const std::string& context) {
  const std::vector<FrequentItemset> expected =
      reference::MineMaximalItemsets(bags, options);
  EXPECT_EQ(MineMaximalItemsets(bags, options, nullptr), expected)
      << context << " pool=nullptr";
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(MineMaximalItemsets(bags, options, &pool), expected)
        << context << " pool=" << threads;
  }
}

// The frequent and closed miners share BuildConditional with the maximal
// one; both are serial.
void ExpectFrequentAndClosedMatchReference(const std::vector<ItemBag>& bags,
                                           const MinerOptions& options,
                                           const std::string& context) {
  EXPECT_EQ(MineFrequentItemsets(bags, options),
            reference::MineFrequentItemsets(bags, options))
      << context << " frequent";
  EXPECT_EQ(MineClosedItemsets(bags, options),
            reference::MineClosedItemsets(bags, options))
      << context << " closed";
}

TEST(MinerEquivalenceTest, RandomClusteredBagsEveryPoolSize) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::vector<ItemBag> bags = ClusteredBags(
        seed, 120 + 40 * seed, 40 + 10 * seed, 10 + seed, 8 + seed);
    for (uint32_t minsup : {2u, 3u, 5u}) {
      MinerOptions options;
      options.minsup = minsup;
      ExpectMaximalMatchesReference(
          bags, options,
          "seed=" + std::to_string(seed) + " minsup=" + std::to_string(minsup));
    }
  }
}

TEST(MinerEquivalenceTest, RandomUniformBagsEveryPoolSize) {
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    std::vector<ItemBag> bags = UniformBags(seed, 60, 12, 7);
    for (uint32_t minsup : {1u, 2u, 4u}) {
      MinerOptions options;
      options.minsup = minsup;
      const std::string context =
          "seed=" + std::to_string(seed) + " minsup=" + std::to_string(minsup);
      ExpectMaximalMatchesReference(bags, options, context);
      ExpectFrequentAndClosedMatchReference(bags, options, context);
    }
  }
}

TEST(MinerEquivalenceTest, EncodedSyntheticCorpus) {
  synth::GeneratorConfig config = synth::ItalyConfig();
  config.num_persons = 400;
  config.seed = 5;
  data::EncodedDataset encoded =
      data::EncodeDataset(synth::Generate(config).dataset);
  for (uint32_t minsup : {2u, 3u, 5u}) {
    MinerOptions options;
    options.minsup = minsup;
    ExpectMaximalMatchesReference(encoded.bags, options,
                                  "minsup=" + std::to_string(minsup));
  }
}

TEST(MinerEquivalenceTest, DuplicateTransactions) {
  std::vector<ItemBag> bags = ClusteredBags(21, 50, 30, 9, 5);
  std::vector<ItemBag> doubled = bags;
  doubled.insert(doubled.end(), bags.begin(), bags.end());
  doubled.insert(doubled.end(), bags.begin(), bags.begin() + 10);
  for (uint32_t minsup : {2u, 3u}) {
    MinerOptions options;
    options.minsup = minsup;
    const std::string context = "minsup=" + std::to_string(minsup);
    ExpectMaximalMatchesReference(doubled, options, context);
    ExpectFrequentAndClosedMatchReference(
        std::vector<ItemBag>(doubled.begin(), doubled.begin() + 40), options,
        context);
  }
}

TEST(MinerEquivalenceTest, SinglePathTree) {
  // Nested bags form one downward path in the initial tree.
  std::vector<ItemBag> bags = {
      {3}, {3, 7}, {3, 7, 9}, {3, 7, 9, 12}, {3, 7, 9}, {3, 7}};
  for (uint32_t minsup : {1u, 2u, 3u}) {
    MinerOptions options;
    options.minsup = minsup;
    const std::string context = "minsup=" + std::to_string(minsup);
    ExpectMaximalMatchesReference(bags, options, context);
    ExpectFrequentAndClosedMatchReference(bags, options, context);
  }
}

TEST(MinerEquivalenceTest, MinsupOne) {
  std::vector<ItemBag> bags = ClusteredBags(31, 40, 25, 6, 6);
  MinerOptions options;
  options.minsup = 1;
  ExpectMaximalMatchesReference(bags, options, "minsup=1");
  ExpectFrequentAndClosedMatchReference(
      std::vector<ItemBag>(bags.begin(), bags.begin() + 12), options,
      "minsup=1");
}

TEST(MinerEquivalenceTest, EmptyBags) {
  MinerOptions options;
  options.minsup = 2;
  ExpectMaximalMatchesReference({}, options, "no transactions");
  ExpectFrequentAndClosedMatchReference({}, options, "no transactions");
  ExpectMaximalMatchesReference({{}, {}, {}}, options, "only empty bags");
  ExpectFrequentAndClosedMatchReference({{}, {}, {}}, options,
                                        "only empty bags");
  std::vector<ItemBag> bags = UniformBags(41, 40, 10, 4);
  for (size_t t = 0; t < bags.size(); t += 3) bags[t].clear();
  ExpectMaximalMatchesReference(bags, options, "some empty bags");
  ExpectFrequentAndClosedMatchReference(bags, options, "some empty bags");
}

TEST(MinerEquivalenceTest, OneItem) {
  std::vector<ItemBag> bags = {{5}, {5}, {5}};
  for (uint32_t minsup : {1u, 3u, 4u}) {
    MinerOptions options;
    options.minsup = minsup;
    const std::string context = "minsup=" + std::to_string(minsup);
    ExpectMaximalMatchesReference(bags, options, context);
    ExpectFrequentAndClosedMatchReference(bags, options, context);
  }
}

TEST(MinerEquivalenceTest, MaxItemsetsCap) {
  std::vector<ItemBag> bags = ClusteredBags(51, 200, 60, 12, 10);
  for (size_t cap : {size_t{1}, size_t{5}, size_t{40}}) {
    MinerOptions options;
    options.minsup = 2;
    options.max_itemsets = cap;
    const std::string context = "cap=" + std::to_string(cap);
    ExpectMaximalMatchesReference(bags, options, context);
    ExpectFrequentAndClosedMatchReference(
        std::vector<ItemBag>(bags.begin(), bags.begin() + 30), options,
        context);
  }
}

}  // namespace
}  // namespace yver::mining
