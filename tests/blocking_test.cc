#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "blocking/block_scoring.h"
#include "blocking/item_similarity.h"
#include "blocking/mfi_blocks.h"
#include "blocking/neighborhood.h"
#include "data/item_dictionary.h"
#include "mining/fp_growth.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace yver::blocking {
namespace {

using data::AttributeId;
using data::Dataset;
using data::Record;

// ---------------------------------------------------------------------------
// Expert item similarity (Eq. 1)

class ItemSimTest : public ::testing::Test {
 protected:
  data::ItemDictionary dict_;
};

TEST_F(ItemSimTest, DifferentAttributesScoreZero) {
  auto a = dict_.Intern(AttributeId::kFirstName, "Guido");
  auto b = dict_.Intern(AttributeId::kFathersName, "Guido");
  EXPECT_DOUBLE_EQ(ExpertItemSimilarity(dict_, a, b), 0.0);
}

TEST_F(ItemSimTest, NamesUseJaroWinkler) {
  auto a = dict_.Intern(AttributeId::kLastName, "Foa");
  auto b = dict_.Intern(AttributeId::kLastName, "Foy");
  double s = ExpertItemSimilarity(dict_, a, b);
  EXPECT_GT(s, 0.5);
  EXPECT_LT(s, 1.0);
  EXPECT_DOUBLE_EQ(ExpertItemSimilarity(dict_, a, a), 1.0);
}

TEST_F(ItemSimTest, YearDistanceNormalizedBy50) {
  auto a = dict_.Intern(AttributeId::kBirthYear, "1920");
  auto b = dict_.Intern(AttributeId::kBirthYear, "1930");
  EXPECT_NEAR(ExpertItemSimilarity(dict_, a, b), 1.0 - 10.0 / 50.0, 1e-9);
  auto c = dict_.Intern(AttributeId::kBirthYear, "1820");
  EXPECT_DOUBLE_EQ(ExpertItemSimilarity(dict_, a, c), 0.0);  // clamped
}

TEST_F(ItemSimTest, MonthAndDayNormalization) {
  auto m1 = dict_.Intern(AttributeId::kBirthMonth, "3");
  auto m2 = dict_.Intern(AttributeId::kBirthMonth, "9");
  EXPECT_NEAR(ExpertItemSimilarity(dict_, m1, m2), 1.0 - 6.0 / 12.0, 1e-9);
  auto d1 = dict_.Intern(AttributeId::kBirthDay, "1");
  auto d2 = dict_.Intern(AttributeId::kBirthDay, "31");
  EXPECT_NEAR(ExpertItemSimilarity(dict_, d1, d2), 1.0 - 30.0 / 31.0, 1e-9);
}

TEST_F(ItemSimTest, GeoUsesHaversineOver100Km) {
  auto turin = dict_.Intern(AttributeId::kBirthCity, "Torino");
  auto monca = dict_.Intern(AttributeId::kBirthCity, "Moncalieri");
  dict_.SetGeo(turin, {45.07, 7.69});
  dict_.SetGeo(monca, {45.00, 7.68});
  double s = ExpertItemSimilarity(dict_, turin, monca);
  EXPECT_GT(s, 0.88);  // ~9 km -> ~0.91
  EXPECT_LT(s, 1.0);
}

TEST_F(ItemSimTest, GeoFarApartClampsToZero) {
  auto turin = dict_.Intern(AttributeId::kBirthCity, "Torino");
  auto warsaw = dict_.Intern(AttributeId::kBirthCity, "Warszawa");
  dict_.SetGeo(turin, {45.07, 7.69});
  dict_.SetGeo(warsaw, {52.23, 21.01});
  EXPECT_DOUBLE_EQ(ExpertItemSimilarity(dict_, turin, warsaw), 0.0);
}

TEST_F(ItemSimTest, GeoFallsBackToStringWithoutCoordinates) {
  auto a = dict_.Intern(AttributeId::kBirthCity, "Torino");
  auto b = dict_.Intern(AttributeId::kBirthCity, "Torin");
  EXPECT_GT(ExpertItemSimilarity(dict_, a, b), 0.8);
}

TEST_F(ItemSimTest, CategoricalIsEquality) {
  auto m = dict_.Intern(AttributeId::kGender, "M");
  auto f = dict_.Intern(AttributeId::kGender, "F");
  EXPECT_DOUBLE_EQ(ExpertItemSimilarity(dict_, m, f), 0.0);
  EXPECT_DOUBLE_EQ(ExpertItemSimilarity(dict_, m, m), 1.0);
}

TEST(WeightsTest, ExpertWeightsFavorNamesOverGender) {
  auto w = DefaultExpertWeights();
  EXPECT_GT(w[static_cast<size_t>(AttributeId::kFirstName)],
            w[static_cast<size_t>(AttributeId::kGender)]);
  EXPECT_GT(w[static_cast<size_t>(AttributeId::kLastName)],
            w[static_cast<size_t>(AttributeId::kPermCountry)]);
  for (double v : UniformWeights()) EXPECT_DOUBLE_EQ(v, 1.0);
}

// ---------------------------------------------------------------------------
// Block scoring

Dataset TinyDataset() {
  Dataset ds;
  auto add = [&ds](const char* fn, const char* ln, const char* yb) {
    Record r;
    r.Add(AttributeId::kFirstName, fn);
    r.Add(AttributeId::kLastName, ln);
    if (*yb) r.Add(AttributeId::kBirthYear, yb);
    ds.Add(std::move(r));
  };
  add("Guido", "Foa", "1920");   // 0
  add("Guido", "Foa", "1920");   // 1: identical to 0
  add("Guido", "Foa", "1936");   // 2: differs in year
  add("Mendel", "Kesler", "");   // 3: unrelated
  return ds;
}

TEST(BlockScoringTest, ClusterJaccardIdenticalRecordsIsOne) {
  Dataset ds = TinyDataset();
  auto encoded = data::EncodeDataset(ds);
  Block block;
  block.records = {0, 1};
  block.key = encoded.bags[0];  // full shared content
  double s = ClusterJaccardScore(encoded, block, UniformWeights());
  EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(BlockScoringTest, ClusterJaccardDilutesWithNonSharedContent) {
  Dataset ds = TinyDataset();
  auto encoded = data::EncodeDataset(ds);
  Block block;
  block.records = {0, 2};  // share FN+LN, differ in year
  block.key = {*encoded.dictionary.Find(AttributeId::kFirstName, "Guido"),
               *encoded.dictionary.Find(AttributeId::kLastName, "Foa")};
  double s = ClusterJaccardScore(encoded, block, UniformWeights());
  EXPECT_DOUBLE_EQ(s, 2.0 / 4.0);  // key 2 items, union 4 items
}

TEST(BlockScoringTest, WeightsShiftScore) {
  Dataset ds = TinyDataset();
  auto encoded = data::EncodeDataset(ds);
  Block block;
  block.records = {0, 2};
  block.key = {*encoded.dictionary.Find(AttributeId::kFirstName, "Guido"),
               *encoded.dictionary.Find(AttributeId::kLastName, "Foa")};
  AttributeWeights weights = UniformWeights();
  weights[static_cast<size_t>(AttributeId::kBirthYear)] = 0.0;
  // Non-shared year items now weightless: score = 2/2 = 1.
  EXPECT_DOUBLE_EQ(ClusterJaccardScore(encoded, block, weights), 1.0);
}

TEST(BlockScoringTest, ExpertSimRewardsNearMatches) {
  Dataset ds;
  Record a;
  a.Add(AttributeId::kLastName, "Foa");
  a.Add(AttributeId::kBirthYear, "1920");
  ds.Add(std::move(a));
  Record b;
  b.Add(AttributeId::kLastName, "Foy");
  b.Add(AttributeId::kBirthYear, "1921");
  ds.Add(std::move(b));
  auto encoded = data::EncodeDataset(ds);
  Block block;
  block.records = {0, 1};
  block.key = {};
  double s = ExpertSimScore(encoded, block, UniformWeights());
  // No exact shared items, but near-identical under Eq. 1.
  EXPECT_GT(s, 0.7);
  Block self;
  self.records = {0, 0};
  EXPECT_DOUBLE_EQ(ExpertSimScore(encoded, self, UniformWeights()), 1.0);
}

// ---------------------------------------------------------------------------
// NG cap (shared by size filter and sparse neighborhood)

TEST(NgCapTest, CeilSemanticsAndClamp) {
  EXPECT_EQ(NgCap(3.0, 5), 15u);
  EXPECT_EQ(NgCap(2.5, 3), 8u);   // ceil(7.5), not trunc -> 7
  EXPECT_EQ(NgCap(3.5, 5), 18u);  // ceil(17.5)
  EXPECT_EQ(NgCap(1.0, 2), 2u);
  EXPECT_EQ(NgCap(0.5, 2), 2u);   // clamped: a block needs 2 records
}

// Regression for the block-size/neighborhood cap mismatch: with ng = 2.5,
// minsup = 3 the old size filter truncated to 7 while the neighborhood cap
// ceil'd to 8, so a support-8 block passed the NG neighborhood condition
// yet was silently rejected by the size filter and its records never
// paired. Both caps now share NgCap (ceil), so the block survives.
TEST(MfiBlocksTest, FractionalNgCapKeepsCeilSizedBlocks) {
  Dataset ds;
  for (int i = 0; i < 8; ++i) {
    Record r;
    r.entity_id = 1;
    r.Add(AttributeId::kFirstName, "Guido");
    r.Add(AttributeId::kLastName, "Foa");
    r.Add(AttributeId::kBirthYear, "1920");
    r.Add(AttributeId::kPermCity, "Torino");
    ds.Add(std::move(r));
  }
  auto encoded = data::EncodeDataset(ds);
  MfiBlocksConfig config;
  config.max_minsup = 3;
  config.ng = 2.5;
  auto result = RunMfiBlocks(encoded, config);
  ASSERT_EQ(result.blocks.size(), 1u);
  EXPECT_EQ(result.blocks[0].records.size(), 8u);
  EXPECT_EQ(result.blocks[0].minsup_level, 3u);
  // All C(8,2) pairs emitted.
  EXPECT_EQ(result.pairs.size(), 28u);
  EXPECT_EQ(result.num_records_covered, 8u);
}

// ---------------------------------------------------------------------------
// Sparse neighborhood

TEST(NeighborhoodTest, NoViolationMeansZeroThreshold) {
  std::vector<Block> blocks(1);
  blocks[0].records = {0, 1};
  blocks[0].score = 0.9;
  EXPECT_DOUBLE_EQ(ComputeMinThreshold(blocks, 3, 3.0, 2), 0.0);
}

TEST(NeighborhoodTest, CrowdedRecordRaisesThreshold) {
  // Record 0 co-blocked with many distinct records across many blocks;
  // cap = ceil(1.0 * 2) = 2 neighbors.
  std::vector<Block> blocks;
  for (uint32_t i = 1; i <= 5; ++i) {
    Block b;
    b.records = {0, i};
    b.score = 0.1 * i;  // scores 0.1 .. 0.5
    blocks.push_back(b);
  }
  double th = ComputeMinThreshold(blocks, 6, 1.0, 2);
  // Best two blocks (0.5, 0.4) fit in the cap; the third (0.3) violates.
  EXPECT_DOUBLE_EQ(th, 0.3);
  auto sizes = NeighborhoodSizes(blocks, 6, th);
  EXPECT_LE(sizes[0], 2u);

  // Records that sit in one block only are crowded too when that block
  // alone holds more than cap + 1 records.
  std::vector<Block> oversize(1);
  oversize[0].records = {0, 1, 2, 3};
  oversize[0].score = 0.4;
  EXPECT_DOUBLE_EQ(ComputeMinThreshold(oversize, 5, 1.0, 2), 0.4);
  oversize[0].records = {0, 1, 2};  // exactly cap neighbors each: fits
  EXPECT_DOUBLE_EQ(ComputeMinThreshold(oversize, 5, 1.0, 2), 0.0);
}

TEST(NeighborhoodTest, EqualScoreBlocksVisitedInIndexOrder) {
  // Two equal-score blocks around record 0 under cap = NgCap(1.5, 2) = 3:
  // whichever is visited second overflows (2 + 3 distinct neighbors), so
  // min_th must equal the tied score — and with the deterministic
  // tie-break (score desc, block index asc) the visit order is pinned
  // rather than left to std::sort's unspecified equal-element placement.
  std::vector<Block> blocks(3);
  blocks[0].records = {0, 1, 2};
  blocks[0].score = 0.5;
  blocks[1].records = {0, 3, 4, 5};
  blocks[1].score = 0.5;
  blocks[2].records = {0, 6};
  blocks[2].score = 0.2;
  EXPECT_DOUBLE_EQ(ComputeMinThreshold(blocks, 7, 1.5, 2), 0.5);

  // Same blocks, no tie: the larger block alone fits the cap, the smaller
  // one overflows on top of it regardless of score order.
  blocks[1].score = 0.6;
  EXPECT_DOUBLE_EQ(ComputeMinThreshold(blocks, 7, 1.5, 2), 0.5);
}

TEST(NeighborhoodTest, SameNeighborsDoNotRecount) {
  // The same neighbor through multiple blocks counts once.
  std::vector<Block> blocks;
  for (int i = 0; i < 4; ++i) {
    Block b;
    b.records = {0, 1};
    b.score = 0.5 + 0.1 * i;
    blocks.push_back(b);
  }
  EXPECT_DOUBLE_EQ(ComputeMinThreshold(blocks, 2, 1.0, 2), 0.0);
}

// ---------------------------------------------------------------------------
// MFIBlocks end-to-end on a controlled dataset

Dataset DuplicatesDataset() {
  // Three latent entities with 3/2/1 records + noise records.
  Dataset ds;
  auto add = [&ds](int64_t entity, const char* fn, const char* ln,
                   const char* yb, const char* city) {
    Record r;
    r.entity_id = entity;
    r.Add(AttributeId::kFirstName, fn);
    r.Add(AttributeId::kLastName, ln);
    r.Add(AttributeId::kBirthYear, yb);
    r.Add(AttributeId::kPermCity, city);
    ds.Add(std::move(r));
  };
  add(1, "Guido", "Foa", "1920", "Torino");
  add(1, "Guido", "Foa", "1920", "Torino");
  add(1, "Guido", "Foa", "1920", "Canischio");
  add(2, "Mendel", "Kesler", "1899", "Lublin");
  add(2, "Mendel", "Kesler", "1899", "Warszawa");
  add(3, "Ilona", "Weisz", "1910", "Budapest");
  // Unrelated one-off records.
  add(4, "Laszlo", "Kovacs", "1925", "Szeged");
  add(5, "Rosa", "Levi", "1931", "Roma");
  return ds;
}

TEST(MfiBlocksTest, FindsTrueDuplicateClusters) {
  Dataset ds = DuplicatesDataset();
  auto encoded = data::EncodeDataset(ds);
  MfiBlocksConfig config;
  config.max_minsup = 3;
  config.ng = 3.0;
  auto result = RunMfiBlocks(encoded, config);
  std::set<data::RecordPair> pairs;
  for (const auto& cp : result.pairs) pairs.insert(cp.pair);
  EXPECT_TRUE(pairs.count(data::RecordPair(0, 1)));
  EXPECT_TRUE(pairs.count(data::RecordPair(0, 2)));
  EXPECT_TRUE(pairs.count(data::RecordPair(1, 2)));
  EXPECT_TRUE(pairs.count(data::RecordPair(3, 4)));
  // Entity 3 and the one-offs have no duplicates to pair with.
  for (const auto& p : pairs) {
    EXPECT_TRUE(ds.IsGoldMatch(p.a, p.b))
        << "false positive pair (" << p.a << "," << p.b << ")";
  }
}

TEST(MfiBlocksTest, BlocksRespectSizeCap) {
  Dataset ds = DuplicatesDataset();
  auto encoded = data::EncodeDataset(ds);
  MfiBlocksConfig config;
  config.max_minsup = 2;
  config.ng = 1.0;  // cap = minsup * 1
  auto result = RunMfiBlocks(encoded, config);
  for (const auto& b : result.blocks) {
    EXPECT_LE(b.records.size(), NgCap(config.ng, b.minsup_level));
  }
}

TEST(MfiBlocksTest, PairsSortedByScore) {
  Dataset ds = DuplicatesDataset();
  auto encoded = data::EncodeDataset(ds);
  MfiBlocksConfig config;
  auto result = RunMfiBlocks(encoded, config);
  for (size_t i = 1; i < result.pairs.size(); ++i) {
    EXPECT_GE(result.pairs[i - 1].block_score, result.pairs[i].block_score);
  }
}

TEST(MfiBlocksTest, ParallelScoringMatchesSequential) {
  Dataset ds = DuplicatesDataset();
  auto encoded = data::EncodeDataset(ds);
  MfiBlocksConfig config;
  auto sequential = RunMfiBlocks(encoded, config, nullptr);
  util::ThreadPool pool(4);
  auto parallel = RunMfiBlocks(encoded, config, &pool);
  ASSERT_EQ(sequential.pairs.size(), parallel.pairs.size());
  for (size_t i = 0; i < sequential.pairs.size(); ++i) {
    EXPECT_EQ(sequential.pairs[i].pair, parallel.pairs[i].pair);
    EXPECT_DOUBLE_EQ(sequential.pairs[i].block_score,
                     parallel.pairs[i].block_score);
  }
}

TEST(MfiBlocksTest, EmptyDataset) {
  Dataset ds;
  auto encoded = data::EncodeDataset(ds);
  MfiBlocksConfig config;
  auto result = RunMfiBlocks(encoded, config);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_TRUE(result.blocks.empty());
}

TEST(MfiBlocksTest, CandidatePairsAreCanonicalAndUnique) {
  Dataset ds = DuplicatesDataset();
  auto encoded = data::EncodeDataset(ds);
  MfiBlocksConfig config;
  auto result = RunMfiBlocks(encoded, config);
  std::set<data::RecordPair> seen;
  for (const auto& cp : result.pairs) {
    EXPECT_LT(cp.pair.a, cp.pair.b);
    EXPECT_TRUE(seen.insert(cp.pair).second) << "duplicate pair";
  }
}

// ~370 synthetic reports: enough near-duplicates for hundreds of MFIs and
// thousands of closed itemsets at minsup 2.
const synth::GeneratedData& SmallCorpus() {
  static const synth::GeneratedData* corpus = [] {
    synth::GeneratorConfig config = synth::ItalyConfig();
    config.num_persons = 200;
    config.seed = 5;
    return new synth::GeneratedData(synth::Generate(config));
  }();
  return *corpus;
}

// Distinct maximal (or closed) itemsets over the same bags have distinct
// support sets (DESIGN.md §9), so every mined itemset whose support fits
// the size filter becomes its own block. max_minsup = 2 makes the run one
// iteration over every record, which the miner can be run on directly.
TEST(MfiBlocksTest, UncappedRunConsidersOneBlockPerInRangeItemset) {
  auto encoded = data::EncodeDataset(SmallCorpus().dataset);
  mining::MinerOptions options;
  options.minsup = 2;
  for (ItemsetKind kind : {ItemsetKind::kMaximal, ItemsetKind::kClosed}) {
    std::vector<mining::FrequentItemset> itemsets =
        kind == ItemsetKind::kMaximal
            ? mining::MineMaximalItemsets(encoded.bags, options)
            : mining::MineClosedItemsets(encoded.bags, options);
    for (double ng : {1.0, 1.5, 3.0, 5.0}) {
      MfiBlocksConfig config;
      config.max_minsup = 2;
      config.ng = ng;
      config.itemset_kind = kind;
      auto result = RunMfiBlocks(encoded, config);
      size_t in_range = 0;
      for (const auto& fi : itemsets) {
        if (fi.support >= 2 && fi.support <= NgCap(ng, 2)) ++in_range;
      }
      EXPECT_EQ(result.num_mfis_mined, itemsets.size());
      EXPECT_GT(in_range, 0u);
      EXPECT_EQ(result.num_blocks_considered, in_range)
          << "kind " << static_cast<int>(kind) << " ng " << ng;
    }
  }
}

// Property sweep: over NG values, higher NG never decreases the number of
// candidate pairs on a fixed dataset (looser sparse-neighborhood cap).
class MfiBlocksNgTest : public ::testing::TestWithParam<double> {};

TEST_P(MfiBlocksNgTest, BlocksWithinCapAndScoresPositive) {
  Dataset ds = DuplicatesDataset();
  auto encoded = data::EncodeDataset(ds);
  MfiBlocksConfig config;
  config.ng = GetParam();
  auto result = RunMfiBlocks(encoded, config);
  for (const auto& b : result.blocks) {
    EXPECT_GE(b.records.size(), 2u);
    EXPECT_GT(b.score, 0.0);
    EXPECT_LE(b.score, 1.0 + 1e-9);
    EXPECT_TRUE(std::is_sorted(b.records.begin(), b.records.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(NgSweep, MfiBlocksNgTest,
                         ::testing::Values(1.5, 2.0, 2.5, 3.0, 3.5, 4.0,
                                           4.5, 5.0));

}  // namespace
}  // namespace yver::blocking
