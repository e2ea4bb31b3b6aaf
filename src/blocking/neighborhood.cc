#include "blocking/neighborhood.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.h"

namespace yver::blocking {

size_t NgCap(double ng, uint32_t minsup) {
  YVER_CHECK(ng > 0.0);
  return std::max<size_t>(
      2, static_cast<size_t>(std::ceil(ng * static_cast<double>(minsup))));
}

double ComputeMinThreshold(const std::vector<Block>& blocks,
                           size_t num_records, double ng, uint32_t minsup,
                           util::ThreadPool* pool) {
  size_t cap = NgCap(ng, minsup);
  // Per-record block indices in CSR form: record r's blocks are
  // record_blocks[offsets[r] .. offsets[r + 1]), ascending.
  std::vector<size_t> offsets(num_records + 1, 0);
  for (const Block& block : blocks) {
    for (data::RecordIdx r : block.records) {
      YVER_CHECK(r < num_records);
      ++offsets[r + 1];
    }
  }
  for (size_t r = 0; r < num_records; ++r) offsets[r + 1] += offsets[r];
  std::vector<uint32_t> record_blocks(offsets.back());
  {
    std::vector<size_t> fill(offsets.begin(), offsets.end() - 1);
    for (uint32_t b = 0; b < blocks.size(); ++b) {
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
      if (bs_end - bs <= 1) continue;
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
