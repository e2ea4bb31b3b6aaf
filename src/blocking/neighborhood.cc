#include "blocking/neighborhood.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_set>

#include "util/check.h"
#include "util/timer.h"

namespace yver::blocking {

size_t NgCap(double ng, uint32_t minsup) {
  YVER_CHECK(ng > 0.0);
  return std::max<size_t>(
      2, static_cast<size_t>(std::ceil(ng * static_cast<double>(minsup))));
}

double ComputeMinThreshold(const std::vector<Block>& blocks,
                           size_t num_records, double ng, uint32_t minsup,
                           util::ThreadPool* pool) {
  YVER_CHECK(blocks.size() < UINT32_MAX);
  std::vector<uint32_t> all(blocks.size());
  std::iota(all.begin(), all.end(), 0u);
  return ComputeMinThreshold(blocks, all, num_records, ng, minsup, pool);
}

double ComputeMinThreshold(const std::vector<Block>& blocks,
                           const std::vector<uint32_t>& members,
                           size_t num_records, double ng, uint32_t minsup,
                           util::ThreadPool* pool) {
  size_t cap = NgCap(ng, minsup);
  // Per-record block indices in CSR form: record r's blocks are
  // record_blocks[offsets[r] .. offsets[r + 1]), ascending.
  std::vector<size_t> offsets(num_records + 1, 0);
  for (uint32_t b : members) {
    YVER_CHECK(b < blocks.size());
    for (data::RecordIdx r : blocks[b].records) {
      YVER_CHECK(r < num_records);
      ++offsets[r + 1];
    }
  }
  for (size_t r = 0; r < num_records; ++r) offsets[r + 1] += offsets[r];
  std::vector<uint32_t> record_blocks(offsets.back());
  {
    std::vector<size_t> fill(offsets.begin(), offsets.end() - 1);
    for (uint32_t b : members) {
      for (data::RecordIdx r : blocks[b].records) {
        record_blocks[fill[r]++] = b;
      }
    }
  }
  // Each record's scan is independent, so records are scanned per chunk;
  // every chunk keeps its own neighbor marks and its own maximum, and the
  // chunk maxima are combined serially. Max is exact in any order.
  auto scan = [&](size_t begin, size_t end) {
    double chunk_max = 0.0;
    // neighbor_of[x] == r + 1 iff x is already a neighbor of record r.
    std::vector<uint32_t> neighbor_of(num_records, 0);
    for (size_t r = begin; r < end; ++r) {
      uint32_t* bs = record_blocks.data() + offsets[r];
      uint32_t* bs_end = record_blocks.data() + offsets[r + 1];
      // A record in one block that fits the cap can never overflow.
      if (bs == bs_end ||
          (bs_end - bs == 1 && blocks[*bs].records.size() - 1 <= cap)) {
        continue;
      }
      // Score descending, ties broken by ascending block index: equal-score
      // blocks must be visited in a specified order or the derived min_th
      // would hinge on std::sort's unspecified equal-element placement.
      std::sort(bs, bs_end, [&blocks](uint32_t a, uint32_t b) {
        if (blocks[a].score != blocks[b].score) {
          return blocks[a].score > blocks[b].score;
        }
        return a < b;
      });
      const uint32_t mark = static_cast<uint32_t>(r) + 1;
      size_t neighbors = 0;
      for (; bs != bs_end; ++bs) {
        const Block& block = blocks[*bs];
        size_t added = 0;
        for (data::RecordIdx other : block.records) {
          if (other != r && neighbor_of[other] != mark) ++added;
        }
        if (neighbors + added > cap) {
          // This block (and all lower-scoring ones for r) must go.
          chunk_max = std::max(chunk_max, block.score);
          break;
        }
        for (data::RecordIdx other : block.records) {
          if (other != r && neighbor_of[other] != mark) {
            neighbor_of[other] = mark;
            ++neighbors;
          }
        }
      }
    }
    return chunk_max;
  };
  double min_th = 0.0;
  if (pool != nullptr && pool->num_threads() > 1) {
    std::vector<double> chunk_max(pool->NumChunks(num_records), 0.0);
    pool->ParallelForChunkedIndexed(
        num_records, [&](size_t chunk, size_t begin, size_t end) {
          chunk_max[chunk] = scan(begin, end);
        });
    for (double m : chunk_max) min_th = std::max(min_th, m);
  } else {
    min_th = scan(0, num_records);
  }
  return min_th;
}

BoundedThreshold ScoreAboveMinThreshold(
    std::vector<Block>& blocks, const std::vector<double>& bounds,
    const std::function<double(const Block&)>& score, size_t num_records,
    double ng, uint32_t minsup, util::ThreadPool* pool,
    const std::function<double(const Block&)>& refine) {
  const size_t m = blocks.size();
  YVER_CHECK(bounds.size() == m);
  YVER_CHECK(m < UINT32_MAX);
  // A record with a single block is never scanned, so a block that could
  // overflow on its own would be seen in one pass and missed in another.
  const size_t cap = NgCap(ng, minsup);
  for (const Block& b : blocks) YVER_CHECK(b.records.size() <= cap);
  BoundedThreshold out;
  util::Timer timer;
  // scored[i] is written only by the task that handles block i.
  std::vector<char> scored(m, 0);
  // Scores blocks[which[k]] for every k, unless `floor` is set and refine
  // puts the block at or below it.
  auto score_all = [&](const std::vector<uint32_t>& which,
                       const double* floor) {
    const bool refining = floor != nullptr && refine != nullptr;
    auto score_range = [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) {
        Block& b = blocks[which[k]];
        if (refining && refine(b) <= *floor) continue;
        b.score = score(b);
        scored[which[k]] = 1;
      }
    };
    // A refining pass is mostly sub-microsecond bound checks, so it runs
    // in static chunks; a scoring pass takes a block per cursor claim.
    if (pool == nullptr) {
      score_range(0, which.size());
    } else if (refining) {
      pool->ParallelForChunked(which.size(), score_range);
    } else {
      pool->ParallelFor(which.size(),
                        [&](size_t k) { score_range(k, k + 1); });
    }
    for (uint32_t i : which) out.num_scored += scored[i];
  };

  // The seed: the highest bounds, ties to the lower index, scored in
  // ascending index order.
  std::vector<uint32_t> seed(m);
  std::iota(seed.begin(), seed.end(), 0u);
  const size_t num_seed =
      std::min(m, static_cast<size_t>(std::ceil(
                      kSeedFraction * static_cast<double>(m))));
  std::nth_element(seed.begin(), seed.begin() + num_seed, seed.end(),
                   [&bounds](uint32_t a, uint32_t b) {
                     if (bounds[a] != bounds[b]) return bounds[a] > bounds[b];
                     return a < b;
                   });
  seed.resize(num_seed);
  std::sort(seed.begin(), seed.end());
  score_all(seed, nullptr);
  out.score_seconds += timer.ElapsedSeconds();

  timer.Reset();
  out.seed_th =
      ComputeMinThreshold(blocks, seed, num_records, ng, minsup, pool);
  out.threshold_seconds += timer.ElapsedSeconds();

  timer.Reset();
  std::vector<uint32_t> rest;
  for (uint32_t i = 0; i < m; ++i) {
    if (!scored[i] && bounds[i] > out.seed_th) rest.push_back(i);
  }
  score_all(rest, &out.seed_th);
  out.score_seconds += timer.ElapsedSeconds();

  timer.Reset();
  std::vector<uint32_t> above;
  for (uint32_t i = 0; i < m; ++i) {
    if (scored[i] && blocks[i].score > out.seed_th) above.push_back(i);
  }
  out.min_th = std::max(
      out.seed_th,
      ComputeMinThreshold(blocks, above, num_records, ng, minsup, pool));
  for (uint32_t i : above) {
    if (blocks[i].score > out.min_th) out.kept.push_back(i);
  }
  out.threshold_seconds += timer.ElapsedSeconds();
  return out;
}

std::vector<size_t> NeighborhoodSizes(const std::vector<Block>& blocks,
                                      size_t num_records, double threshold) {
  std::vector<std::unordered_set<data::RecordIdx>> neighbor_sets(num_records);
  for (const Block& block : blocks) {
    if (block.score <= threshold) continue;
    for (data::RecordIdx r : block.records) {
      for (data::RecordIdx other : block.records) {
        if (other != r) neighbor_sets[r].insert(other);
      }
    }
  }
  std::vector<size_t> sizes(num_records);
  for (size_t r = 0; r < num_records; ++r) sizes[r] = neighbor_sets[r].size();
  return sizes;
}

}  // namespace yver::blocking
