#include "support/reference_mfi_blocks.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>

#include "blocking/block_scoring.h"
#include "blocking/neighborhood.h"
#include "data/inverted_index.h"
#include "mining/fp_growth.h"
#include "util/byte_codec.h"
#include "util/check.h"
#include "util/timer.h"

namespace yver::blocking::reference {

namespace {

constexpr uint32_t kNoBlock = UINT32_MAX;

// Hashes a sorted record set for block deduplication: FNV-1a's constants
// folded over whole record indices rather than bytes.
uint64_t HashRecordSet(const std::vector<data::RecordIdx>& v) {
  uint64_t h = util::Fnv1a::kOffsetBasis;
  for (data::RecordIdx r : v) {
    h ^= r;
    h *= util::Fnv1a::kPrime;
  }
  return h;
}

using PairMap =
    std::unordered_map<data::RecordPair, CandidatePair, data::RecordPairHash>;

// Folds one (pair, score, minsup) observation into a pair map with the
// serial emission rule: first block wins, a strictly better score
// overwrites. The rule is "max score, earliest block on ties", which is
// associative over an ordered partition of the block list — that is what
// makes the chunked emission below merge-order-invariant.
void FoldPair(PairMap& map, const data::RecordPair& rp, double score,
              uint32_t minsup) {
  auto it = map.find(rp);
  if (it == map.end()) {
    map.emplace(rp, CandidatePair{rp, score, minsup});
  } else if (score > it->second.block_score) {
    it->second.block_score = score;
    it->second.minsup_level = minsup;
  }
}

}  // namespace

MfiBlocksResult RunMfiBlocks(const data::EncodedDataset& encoded,
                             const MfiBlocksConfig& config,
                             util::ThreadPool* pool) {
  YVER_CHECK(config.max_minsup >= 2);
  YVER_CHECK(config.ng > 0.0);
  MfiBlocksResult result;
  const size_t n = encoded.bags.size();

  const AttributeWeights weights = config.expert_weighting
                                       ? DefaultExpertWeights()
                                       : UniformWeights();

  // Optional frequent-item pruning applies to the mining input only; the
  // scores still see full bags.
  std::vector<data::ItemBag> mining_bags =
      config.prune_frequent_fraction > 0.0
          ? encoded.PruneMostFrequent(config.prune_frequent_fraction)
          : encoded.bags;

  std::vector<bool> covered(n, false);
  PairMap pair_map;
  util::Timer timer;

  for (uint32_t minsup = config.max_minsup; minsup >= 2; --minsup) {
    // Collect uncovered records (D \ P) and their bags; mining runs on
    // local transaction ids which we map back to record indices.
    std::vector<data::RecordIdx> local_to_global;
    std::vector<data::ItemBag> local_bags;
    for (size_t r = 0; r < n; ++r) {
      if (covered[r]) continue;
      local_to_global.push_back(static_cast<data::RecordIdx>(r));
      local_bags.push_back(mining_bags[r]);
    }
    if (local_to_global.size() < minsup) continue;

    mining::MinerOptions miner_options;
    miner_options.minsup = minsup;
    timer.Reset();
    std::vector<mining::FrequentItemset> mfis =
        config.itemset_kind == ItemsetKind::kMaximal
            ? mining::MineMaximalItemsets(local_bags, miner_options, pool)
            : mining::MineClosedItemsets(local_bags, miner_options);
    result.num_mfis_mined += mfis.size();
    result.timings.mine_seconds += timer.ElapsedSeconds();

    // Filter by block size: 2 <= |B| <= NgCap(ng, minsup) — the same cap
    // the sparse-neighborhood condition uses. A mined itemset's support
    // count is the size of its support set, so the filter runs before any
    // set is built.
    timer.Reset();
    const size_t max_block_size = NgCap(config.ng, minsup);
    std::vector<std::vector<data::ItemId>> keys;
    std::vector<uint32_t> key_support;
    for (mining::FrequentItemset& mfi : mfis) {
      if (mfi.support < 2 || mfi.support > max_block_size) continue;
      keys.push_back(std::move(mfi.items));
      key_support.push_back(mfi.support);
    }
    mfis.clear();

    // FindSupport: recompute membership via a local inverted index to
    // obtain the record lists, all itemsets in one batch. Each support is
    // then remapped to global record ids and hashed — in parallel, each
    // into its own slot.
    data::InvertedIndex index(local_bags, encoded.dictionary.size());
    std::vector<std::vector<data::RecordIdx>> supports =
        index.Supports(keys, pool);
    std::vector<uint64_t> hashes(keys.size());
    auto remap_one = [&](size_t i) {
      YVER_CHECK(supports[i].size() == key_support[i]);
      for (auto& r : supports[i]) r = local_to_global[r];
      hashes[i] = HashRecordSet(supports[i]);
    };
    if (pool != nullptr) {
      pool->ParallelFor(keys.size(), remap_one);
    } else {
      for (size_t i = 0; i < keys.size(); ++i) remap_one(i);
    }

    // Dedup stays serial in MFI order so the kept key per record set is
    // deterministic. With the hashes precomputed it only probes: an
    // open-addressing table of block ids, linear probing from the hash.
    std::vector<Block> blocks;
    std::vector<uint32_t> block_support;  // block -> its supports[] slot
    const size_t table_mask = std::bit_ceil(2 * keys.size() + 1) - 1;
    std::vector<uint32_t> table(table_mask + 1, kNoBlock);
    for (size_t i = 0; i < keys.size(); ++i) {
      // Fold the high half in: FNV's multiply only carries upwards.
      size_t pos = (hashes[i] ^ (hashes[i] >> 32)) & table_mask;
      while (table[pos] != kNoBlock) {
        const uint32_t other = block_support[table[pos]];
        if (hashes[other] == hashes[i] && supports[other] == supports[i]) {
          break;
        }
        pos = (pos + 1) & table_mask;
      }
      if (table[pos] != kNoBlock) {
        // Same record set reachable via several keys: keep the longer key
        // (more shared content; scores higher under ClusterJaccard).
        Block& existing = blocks[table[pos]];
        if (keys[i].size() > existing.key.size()) {
          existing.key = std::move(keys[i]);
        }
        continue;
      }
      table[pos] = static_cast<uint32_t>(blocks.size());
      Block block;
      block.key = std::move(keys[i]);
      block.minsup_level = minsup;
      blocks.push_back(std::move(block));
      block_support.push_back(static_cast<uint32_t>(i));
    }
    for (size_t b = 0; b < blocks.size(); ++b) {
      blocks[b].records = std::move(supports[block_support[b]]);
    }
    result.num_blocks_considered += blocks.size();
    result.num_blocks_scored += blocks.size();
    result.timings.support_seconds += timer.ElapsedSeconds();

    // Score blocks (parallelized; this is the paper's Spark stage). Each
    // score lands in its own slot, so scheduling never reorders anything.
    timer.Reset();
    auto score_one = [&](size_t i) {
      Block& b = blocks[i];
      b.score = config.score_kind == BlockScoreKind::kClusterJaccard
                    ? ClusterJaccardScore(encoded, b, weights)
                    : ExpertSimScore(encoded, b, weights);
    };
    if (pool != nullptr) {
      pool->ParallelFor(blocks.size(), score_one);
    } else {
      for (size_t i = 0; i < blocks.size(); ++i) score_one(i);
    }
    result.timings.score_seconds += timer.ElapsedSeconds();

    // Sparse-neighborhood condition: derive minTh and filter.
    timer.Reset();
    double min_th = ComputeMinThreshold(blocks, n, config.ng, minsup, pool);
    std::vector<Block> kept;
    kept.reserve(blocks.size());
    for (auto& b : blocks) {
      if (b.score > min_th) kept.push_back(std::move(b));
    }
    result.timings.threshold_seconds += timer.ElapsedSeconds();

    // Emit candidate pairs: per-chunk local pair maps built in parallel,
    // merged into the cross-iteration map serially in chunk order. The
    // fold rule is associative over the ordered block partition (see
    // FoldPair), so the merged map matches the serial single-map result
    // for every chunking — i.e. every thread count.
    timer.Reset();
    size_t num_chunks = pool != nullptr ? pool->NumChunks(kept.size())
                                        : (kept.empty() ? 0 : 1);
    std::vector<PairMap> chunk_maps(num_chunks);
    auto emit_chunk = [&](size_t chunk, size_t begin, size_t end) {
      PairMap& local = chunk_maps[chunk];
      for (size_t k = begin; k < end; ++k) {
        const Block& b = kept[k];
        for (size_t i = 0; i < b.records.size(); ++i) {
          for (size_t j = i + 1; j < b.records.size(); ++j) {
            FoldPair(local, data::RecordPair(b.records[i], b.records[j]),
                     b.score, minsup);
          }
        }
      }
    };
    if (pool != nullptr) {
      pool->ParallelForChunkedIndexed(kept.size(), emit_chunk);
    } else if (!kept.empty()) {
      emit_chunk(0, 0, kept.size());
    }
    for (const PairMap& local : chunk_maps) {
      for (const auto& [rp, cp] : local) {
        FoldPair(pair_map, rp, cp.block_score, cp.minsup_level);
      }
    }
    // Coverage: every record of a kept block (all have >= 2 records)
    // participates in at least one emitted pair.
    for (const Block& b : kept) {
      for (data::RecordIdx r : b.records) covered[r] = true;
    }
    for (auto& b : kept) result.blocks.push_back(std::move(b));
    result.timings.emit_seconds += timer.ElapsedSeconds();

    bool all_covered = true;
    for (size_t r = 0; r < n; ++r) {
      if (!covered[r]) {
        all_covered = false;
        break;
      }
    }
    if (all_covered) break;
  }

  timer.Reset();
  result.pairs.reserve(pair_map.size());
  for (auto& [rp, cp] : pair_map) result.pairs.push_back(cp);
  std::sort(result.pairs.begin(), result.pairs.end(),
            [](const CandidatePair& a, const CandidatePair& b) {
              if (a.block_score != b.block_score) {
                return a.block_score > b.block_score;
              }
              return a.pair < b.pair;
            });
  for (bool c : covered) result.num_records_covered += c ? 1 : 0;
  result.timings.emit_seconds += timer.ElapsedSeconds();
  return result;
}

}  // namespace yver::blocking::reference
