// Bound-pruned MFIBlocks scoring (DESIGN.md §9): the ClusterJaccard upper
// bound, the two-step minTh of ScoreAboveMinThreshold, and whole
// RunMfiBlocks results against the preserved score-everything reference
// (tests/support/reference_mfi_blocks.*).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/block_scoring.h"
#include "blocking/item_similarity.h"
#include "blocking/mfi_blocks.h"
#include "blocking/neighborhood.h"
#include "data/inverted_index.h"
#include "data/item_dictionary.h"
#include "mining/fp_growth.h"
#include "support/reference_mfi_blocks.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yver::blocking {
namespace {

// A seeded synthetic corpus and its encoding (which points into it).
struct Corpus {
  std::unique_ptr<synth::GeneratedData> data;
  data::EncodedDataset encoded;
};

std::unique_ptr<Corpus> MakeCorpus(size_t persons, uint64_t seed) {
  synth::GeneratorConfig config = synth::ItalyConfig();
  config.num_persons = persons;
  config.seed = seed;
  config.include_mv = true;
  auto corpus = std::make_unique<Corpus>();
  corpus->data =
      std::make_unique<synth::GeneratedData>(synth::Generate(config));
  corpus->encoded = data::EncodeDataset(corpus->data->dataset);
  return corpus;
}

// ---------------------------------------------------------------------------
// The bound: every block MFIBlocks considers on a seeded corpus, at every
// minsup, scores no higher than its bound.

TEST(ScoreBoundTest, UpperBoundCoversEveryConsideredBlock) {
  for (uint64_t seed : {5u, 19u}) {
    std::unique_ptr<Corpus> corpus = MakeCorpus(300, seed);
    const data::EncodedDataset& encoded = corpus->encoded;
    data::InvertedIndex index(encoded.bags, encoded.dictionary.size());
    for (bool expert : {false, true}) {
      const AttributeWeights weights =
          expert ? DefaultExpertWeights() : UniformWeights();
      const std::vector<double> bag_weights = BagWeights(encoded, weights);
      size_t checked = 0;
      size_t tight = 0;  // union weight == heaviest bag weight, exactly
      for (uint32_t minsup : {2u, 3u, 5u}) {
        mining::MinerOptions options;
        options.minsup = minsup;
        std::vector<std::vector<data::ItemId>> keys;
        for (auto& fi : mining::MineMaximalItemsets(encoded.bags, options)) {
          if (fi.support <= NgCap(5.0, minsup)) keys.push_back(fi.items);
        }
        std::vector<std::vector<data::RecordIdx>> supports =
            index.Supports(keys);
        for (size_t i = 0; i < keys.size(); ++i) {
          Block block;
          block.key = keys[i];
          block.records = supports[i];
          const double score = ClusterJaccardScore(encoded, block, weights);
          const double bound =
              ClusterJaccardUpperBound(encoded, block, weights, bag_weights);
          const double union_bound =
              ClusterJaccardUnionBound(encoded, block, weights);
          ASSERT_LE(score, union_bound)
              << "seed " << seed << " expert " << expert << " minsup "
              << minsup << " block " << i;
          ASSERT_LE(union_bound, bound * (1.0 + 1e-12));
          ++checked;
          if (score * (1.0 + kBoundMargin) >= bound) ++tight;
        }
      }
      EXPECT_GT(checked, 1000u) << "seed " << seed;
      // Blocks whose union is one member's bag meet the bound up to float
      // error: the margin is what keeps them below it.
      EXPECT_GT(tight, 0u) << "seed " << seed << " expert " << expert;
    }
  }
}

TEST(ScoreBoundTest, WeightlessBlocksBoundAtZero) {
  data::Dataset ds;
  data::Record r;
  r.Add(data::AttributeId::kFirstName, "Ada");
  ds.Add(r);
  ds.Add(r);
  data::EncodedDataset encoded = data::EncodeDataset(ds);
  AttributeWeights weights{};  // every attribute weighs 0
  Block block;
  block.key = encoded.bags[0];
  block.records = {0, 1};
  EXPECT_EQ(ClusterJaccardScore(encoded, block, weights), 0.0);
  EXPECT_EQ(ClusterJaccardUpperBound(encoded, block, weights,
                                     BagWeights(encoded, weights)),
            0.0);
  EXPECT_EQ(ClusterJaccardUnionBound(encoded, block, weights), 0.0);
}

// ---------------------------------------------------------------------------
// ScoreAboveMinThreshold on hand-built blocks. Block i's key is {i}; the
// score function reads its true score from `truth` and counts its calls.

struct Fixture {
  std::vector<Block> blocks;
  std::vector<double> truth;
  std::vector<double> bounds;
  // The refine bound per block; no refine when empty.
  std::vector<double> refined;

  void Add(std::vector<data::RecordIdx> records, double score, double bound) {
    Block b;
    b.key = {static_cast<data::ItemId>(blocks.size())};
    b.records = std::move(records);
    b.minsup_level = 2;
    blocks.push_back(std::move(b));
    truth.push_back(score);
    bounds.push_back(bound);
  }

  // The threshold and kept list of scoring every block.
  double FullThreshold(size_t num_records, double ng) const {
    std::vector<Block> all = blocks;
    for (size_t i = 0; i < all.size(); ++i) all[i].score = truth[i];
    return ComputeMinThreshold(all, num_records, ng, 2);
  }
  std::vector<uint32_t> FullKept(double min_th) const {
    std::vector<uint32_t> kept;
    for (uint32_t i = 0; i < truth.size(); ++i) {
      if (truth[i] > min_th) kept.push_back(i);
    }
    return kept;
  }

  BoundedThreshold Run(size_t num_records, double ng,
                       std::vector<int>* calls,
                       util::ThreadPool* pool = nullptr) {
    std::vector<std::atomic<int>> counts(blocks.size());
    BoundedThreshold out = ScoreAboveMinThreshold(
        blocks, bounds,
        [&](const Block& b) {
          counts[b.key[0]].fetch_add(1);
          return truth[b.key[0]];
        },
        num_records, ng, 2, pool,
        refined.empty() ? nullptr
                        : std::function<double(const Block&)>(
                              [&](const Block& b) {
                                return refined[b.key[0]];
                              }));
    if (calls != nullptr) {
      calls->clear();
      for (auto& c : counts) calls->push_back(c.load());
    }
    return out;
  }
};

// ng 1 at minsup 2: every record may have two neighbors.
constexpr double kNg = 1.0;

TEST(BoundedThresholdTest, SeedThresholdStrictlyBelowFinal) {
  Fixture f;
  // The only seed block (highest bound of ten) overflows nothing; record 0
  // overflows at its third block, which the seed does not hold.
  f.Add({0, 1}, 0.9, 0.95);
  f.Add({0, 2}, 0.8, 0.85);
  f.Add({0, 3}, 0.7, 0.75);
  for (data::RecordIdx k = 0; k < 7; ++k) {
    f.Add({10 + 2 * k, 11 + 2 * k}, 0.5, 0.6);
  }
  const size_t num_records = 30;
  std::vector<int> calls;
  BoundedThreshold out = f.Run(num_records, kNg, &calls);
  EXPECT_EQ(out.seed_th, 0.0);
  EXPECT_EQ(out.min_th, 0.7);
  EXPECT_EQ(out.min_th, f.FullThreshold(num_records, kNg));
  EXPECT_EQ(out.kept, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(out.num_scored, 10u);
  for (int c : calls) EXPECT_EQ(c, 1);
}

TEST(BoundedThresholdTest, NoOverflowMeansZeroThreshold) {
  Fixture f;
  // Disjoint pairs: nobody overflows. The weightless block bounds at 0, so
  // it is neither scored nor kept.
  for (data::RecordIdx k = 0; k < 19; ++k) {
    f.Add({2 * k, 2 * k + 1}, 0.1 + 0.04 * k, 0.2 + 0.04 * k);
  }
  f.Add({40, 41}, 0.0, 0.0);
  std::vector<int> calls;
  BoundedThreshold out = f.Run(50, kNg, &calls);
  EXPECT_EQ(out.seed_th, 0.0);
  EXPECT_EQ(out.min_th, 0.0);
  EXPECT_EQ(out.min_th, f.FullThreshold(50, kNg));
  EXPECT_EQ(out.kept, f.FullKept(0.0));
  EXPECT_EQ(out.kept.size(), 19u);
  EXPECT_EQ(out.num_scored, 19u);
  EXPECT_EQ(calls[19], 0);
}

TEST(BoundedThresholdTest, ScoresTiedAtSeedThreshold) {
  Fixture f;
  // Seed (the top 3 of 30 bounds): record 0 overflows at score 0.5 = L.
  f.Add({0, 1}, 0.9, 1.0);
  f.Add({0, 2}, 0.8, 0.99);
  f.Add({0, 3}, 0.5, 0.98);
  // Bound exactly L: never scored, though its score would tie L.
  f.Add({5, 6}, 0.5, 0.5);
  // Bound above L, score exactly L: scored, yet not above L, so neither
  // in the second pass nor kept.
  f.Add({7, 8}, 0.5, 0.9);
  // Above L and kept.
  f.Add({9, 10}, 0.6, 0.7);
  // Record 11 would overflow at 0.5 among blocks tied at L; only the
  // blocks above L enter the second pass, where it does not overflow.
  f.Add({11, 12}, 0.5, 0.6);
  f.Add({11, 13}, 0.5, 0.6);
  f.Add({11, 14}, 0.5, 0.6);
  // Fillers below L.
  for (data::RecordIdx k = 0; k < 21; ++k) {
    f.Add({20 + 2 * k, 21 + 2 * k}, 0.3, 0.4);
  }
  const size_t num_records = 70;
  std::vector<int> calls;
  BoundedThreshold out = f.Run(num_records, kNg, &calls);
  EXPECT_EQ(out.seed_th, 0.5);
  EXPECT_EQ(out.min_th, 0.5);
  EXPECT_EQ(out.min_th, f.FullThreshold(num_records, kNg));
  EXPECT_EQ(out.kept, (std::vector<uint32_t>{0, 1, 5}));
  EXPECT_EQ(out.kept, f.FullKept(out.min_th));
  EXPECT_EQ(calls[3], 0);
  EXPECT_EQ(calls[4], 1);
  EXPECT_EQ(out.num_scored, 3u + 5u);  // seed + {4, 5, 6, 7, 8}
  for (size_t i = 9; i < calls.size(); ++i) EXPECT_EQ(calls[i], 0);
}

TEST(BoundedThresholdTest, RefineSkipsBlocksItPutsAtOrBelowSeed) {
  const double ng = 1.5;  // three neighbors per record at minsup 2
  Fixture f;
  // Seed (the top 2 of 20 bounds): record 0 overflows at 0.4 = L.
  f.Add({0, 1, 2}, 0.9, 1.0);
  f.Add({0, 3, 4}, 0.4, 0.99);
  // Both loose bounds are above L; the refine bound puts the first
  // exactly at L (skipped) and the second above it (scored, kept).
  f.Add({5, 6}, 0.4, 0.9);
  f.Add({7, 8}, 0.5, 0.9);
  for (data::RecordIdx k = 0; k < 16; ++k) {
    f.Add({10 + 2 * k, 11 + 2 * k}, 0.2, 0.5);
  }
  f.refined = f.bounds;
  f.refined[2] = 0.4;
  f.refined[3] = 0.55;
  for (size_t i = 4; i < f.refined.size(); ++i) f.refined[i] = 0.3;
  std::vector<int> calls;
  BoundedThreshold out = f.Run(50, ng, &calls);
  EXPECT_EQ(out.seed_th, 0.4);
  EXPECT_EQ(out.min_th, 0.4);
  EXPECT_EQ(out.min_th, f.FullThreshold(50, ng));
  EXPECT_EQ(out.kept, (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(out.kept, f.FullKept(out.min_th));
  EXPECT_EQ(out.num_scored, 3u);
  EXPECT_EQ(calls[2], 0);
  EXPECT_EQ(calls[3], 1);
  for (size_t i = 4; i < calls.size(); ++i) EXPECT_EQ(calls[i], 0);
}

// Random overlapping blocks with tie-heavy scores and bounds that are
// sometimes exact: the pruned threshold and kept list equal scoring
// everything, at every pool size.
TEST(BoundedThresholdTest, MatchesFullScoringOnRandomBlocks) {
  util::Rng rng(2024);
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (size_t t : {1, 2, 8}) {
    pools.push_back(std::make_unique<util::ThreadPool>(t));
  }
  for (int trial = 0; trial < 40; ++trial) {
    Fixture f;
    const size_t num_records = 10 + static_cast<size_t>(rng.UniformInt(0, 30));
    const size_t num_blocks = 1 + static_cast<size_t>(rng.UniformInt(0, 120));
    const double ng = rng.UniformInt(0, 1) == 0 ? 1.0 : 2.5;
    const size_t cap = NgCap(ng, 2);
    for (size_t b = 0; b < num_blocks; ++b) {
      std::vector<data::RecordIdx> records;
      const size_t size =
          2 + static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(cap) - 2));
      while (records.size() < size) {
        data::RecordIdx r = static_cast<data::RecordIdx>(
            rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
        if (std::find(records.begin(), records.end(), r) == records.end()) {
          records.push_back(r);
        }
      }
      std::sort(records.begin(), records.end());
      const double score = 0.1 * static_cast<double>(rng.UniformInt(0, 10));
      const double slack =
          rng.UniformInt(0, 2) == 0 ? 0.0
                                    : 0.1 * static_cast<double>(
                                                rng.UniformInt(0, 5));
      f.Add(std::move(records), score, score + slack);
    }
    // Half the trials refine each bound to somewhere in [score, bound].
    if (rng.UniformInt(0, 1) == 1) {
      for (size_t b = 0; b < num_blocks; ++b) {
        f.refined.push_back(rng.UniformInt(0, 1) == 0 ? f.truth[b]
                                                      : f.bounds[b]);
      }
    }
    const double full = f.FullThreshold(num_records, ng);
    for (const auto& pool : pools) {
      Fixture copy = f;
      BoundedThreshold out = copy.Run(num_records, ng, nullptr, pool.get());
      EXPECT_EQ(out.min_th, full) << "trial " << trial;
      EXPECT_LE(out.seed_th, out.min_th);
      EXPECT_EQ(out.kept, f.FullKept(full)) << "trial " << trial;
      for (uint32_t i : out.kept) EXPECT_EQ(copy.blocks[i].score, f.truth[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Whole RunMfiBlocks results against the score-everything reference.

struct ReferenceCase {
  BlockScoreKind score_kind;
  bool expert_weighting;
  double prune_frequent_fraction;
  double ng;
};

std::string Describe(const ReferenceCase& c) {
  std::string name = c.score_kind == BlockScoreKind::kClusterJaccard
                         ? "ClusterJaccard"
                         : "ExpertSim";
  name += c.expert_weighting ? "_Expert" : "_Uniform";
  name += c.prune_frequent_fraction > 0.0 ? "_Pruned" : "_Full";
  name += "_Ng" + std::to_string(static_cast<int>(c.ng * 10));
  return name;
}

std::string CaseName(const ::testing::TestParamInfo<ReferenceCase>& info) {
  return Describe(info.param);
}

void PrintTo(const ReferenceCase& c, std::ostream* os) { *os << Describe(c); }

std::vector<ReferenceCase> AllCases() {
  std::vector<ReferenceCase> cases;
  for (BlockScoreKind kind :
       {BlockScoreKind::kClusterJaccard, BlockScoreKind::kExpertSim}) {
    for (bool expert : {false, true}) {
      for (double prune : {0.0, 0.0003}) {
        for (double ng : {2.0, 3.5, 5.0}) {
          cases.push_back({kind, expert, prune, ng});
        }
      }
    }
  }
  return cases;
}

// ExpertSim scores every block pairwise, so its cases run on a smaller
// corpus and fewer minsup levels to stay as quick as the others.
const data::EncodedDataset& ReferenceCorpus(BlockScoreKind kind) {
  static const Corpus* large = MakeCorpus(400, 29).release();
  static const Corpus* small = MakeCorpus(250, 29).release();
  return kind == BlockScoreKind::kExpertSim ? small->encoded : large->encoded;
}

class ReferenceMfiBlocksTest
    : public ::testing::TestWithParam<ReferenceCase> {};

TEST_P(ReferenceMfiBlocksTest, MatchesReferenceAtEveryPoolSize) {
  const ReferenceCase& c = GetParam();
  const data::EncodedDataset& encoded = ReferenceCorpus(c.score_kind);
  MfiBlocksConfig config;
  config.max_minsup = c.score_kind == BlockScoreKind::kExpertSim ? 3 : 4;
  config.ng = c.ng;
  config.score_kind = c.score_kind;
  config.expert_weighting = c.expert_weighting;
  config.prune_frequent_fraction = c.prune_frequent_fraction;
  const MfiBlocksResult expected = reference::RunMfiBlocks(encoded, config);
  ASSERT_FALSE(expected.blocks.empty());
  ASSERT_FALSE(expected.pairs.empty());

  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (size_t t : {1, 2, 8}) {
    pools.push_back(std::make_unique<util::ThreadPool>(t));
  }
  size_t scored = 0;
  for (size_t p = 0; p < pools.size(); ++p) {
    const size_t threads = pools[p] ? pools[p]->num_threads() : 0;
    MfiBlocksResult actual = RunMfiBlocks(encoded, config, pools[p].get());
    EXPECT_EQ(actual.blocks, expected.blocks) << "threads " << threads;
    EXPECT_EQ(actual.pairs, expected.pairs) << "threads " << threads;
    EXPECT_EQ(actual.num_mfis_mined, expected.num_mfis_mined);
    EXPECT_EQ(actual.num_blocks_considered, expected.num_blocks_considered);
    EXPECT_EQ(actual.num_records_covered, expected.num_records_covered);
    EXPECT_LE(actual.num_blocks_scored, actual.num_blocks_considered);
    EXPECT_GE(actual.num_blocks_scored, actual.blocks.size());
    if (p == 0) scored = actual.num_blocks_scored;
    EXPECT_EQ(actual.num_blocks_scored, scored) << "threads " << threads;
  }
  if (c.score_kind == BlockScoreKind::kExpertSim) {
    EXPECT_EQ(scored, expected.num_blocks_considered);
  } else {
    EXPECT_LT(scored, expected.num_blocks_considered);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ReferenceMfiBlocksTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace yver::blocking
