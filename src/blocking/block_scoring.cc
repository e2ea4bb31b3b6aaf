#include "blocking/block_scoring.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <unordered_set>
#include <vector>

#include "util/check.h"

namespace yver::blocking {

namespace {

double ItemWeight(const data::ItemDictionary& dict,
                  const AttributeWeights& weights, data::ItemId id) {
  return weights[static_cast<size_t>(dict.attribute(id))];
}

// w(key), summed in key order. The score and its bound both divide this
// very sum, so its rounding cancels out of the bound's margin.
double KeyWeight(const data::ItemDictionary& dict,
                 const AttributeWeights& weights,
                 const std::vector<data::ItemId>& key) {
  double key_weight = 0.0;
  for (data::ItemId id : key) key_weight += ItemWeight(dict, weights, id);
  return key_weight;
}

// Greedy soft-Jaccard between two bags under fsim: every item of each bag
// is matched to its best counterpart in the other bag; the normalized sum
// plays the role of |A ∩ B| / |A ∪ B| with partial credit.
double SoftBagSimilarity(const data::EncodedDataset& encoded,
                         const data::ItemBag& a, const data::ItemBag& b,
                         const AttributeWeights& weights) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const auto& dict = encoded.dictionary;
  double total_weight = 0.0;
  double matched = 0.0;
  for (data::ItemId ia : a) {
    double best = 0.0;
    for (data::ItemId ib : b) {
      best = std::max(best, ExpertItemSimilarity(dict, ia, ib));
    }
    double w = ItemWeight(dict, weights, ia);
    matched += best * w;
    total_weight += w;
  }
  for (data::ItemId ib : b) {
    double best = 0.0;
    for (data::ItemId ia : a) {
      best = std::max(best, ExpertItemSimilarity(dict, ia, ib));
    }
    double w = ItemWeight(dict, weights, ib);
    matched += best * w;
    total_weight += w;
  }
  if (total_weight <= 0.0) return 0.0;
  return matched / total_weight;
}

}  // namespace

double ClusterJaccardScore(const data::EncodedDataset& encoded,
                           const Block& block,
                           const AttributeWeights& weights) {
  YVER_CHECK(!block.records.empty());
  const auto& dict = encoded.dictionary;
  const double key_weight = KeyWeight(dict, weights, block.key);
  // The set lives on a per-thread arena, so its nodes and bucket arrays
  // cost no heap calls. Same element type, hash and insertion sequence as
  // a default-allocated set, hence the same iteration order and the same
  // union-weight summation order: the score bits do not depend on the
  // allocator. Summing in any other order (say, over a mark array) would
  // change them.
  thread_local std::vector<std::byte> buffer(64 * 1024);
  std::pmr::monotonic_buffer_resource arena(buffer.data(), buffer.size());
  std::pmr::unordered_set<data::ItemId> uni(&arena);
  for (data::RecordIdx r : block.records) {
    for (data::ItemId id : encoded.bags[r]) uni.insert(id);
  }
  double union_weight = 0.0;
  for (data::ItemId id : uni) union_weight += ItemWeight(dict, weights, id);
  if (union_weight <= 0.0) return 0.0;
  return key_weight / union_weight;
}

std::vector<double> BagWeights(const data::EncodedDataset& encoded,
                               const AttributeWeights& weights) {
  for (double w : weights) YVER_CHECK(w >= 0.0);
  std::vector<double> out(encoded.bags.size(), 0.0);
  for (size_t r = 0; r < encoded.bags.size(); ++r) {
    const data::ItemBag& bag = encoded.bags[r];
    for (size_t i = 0; i < bag.size(); ++i) {
      YVER_CHECK(i == 0 || bag[i - 1] < bag[i]);
      out[r] += ItemWeight(encoded.dictionary, weights, bag[i]);
    }
  }
  return out;
}

double ClusterJaccardUpperBound(const data::EncodedDataset& encoded,
                                const Block& block,
                                const AttributeWeights& weights,
                                const std::vector<double>& bag_weights) {
  YVER_CHECK(!block.records.empty());
  double heaviest = 0.0;
  for (data::RecordIdx r : block.records) {
    heaviest = std::max(heaviest, bag_weights[r]);
  }
  // Every bag weighs nothing, so neither does the union: the score is 0.
  if (heaviest <= 0.0) return 0.0;
  return KeyWeight(encoded.dictionary, weights, block.key) / heaviest *
         (1.0 + kBoundMargin);
}

double ClusterJaccardUnionBound(const data::EncodedDataset& encoded,
                                const Block& block,
                                const AttributeWeights& weights) {
  YVER_CHECK(!block.records.empty());
  const auto& dict = encoded.dictionary;
  // marks[id] == epoch iff item id is already in this block's union.
  thread_local std::vector<uint32_t> marks;
  thread_local uint32_t epoch = 0;
  if (marks.size() < dict.size() || ++epoch == 0) {
    marks.assign(std::max(marks.size(), dict.size()), 0);
    epoch = 1;
  }
  double union_weight = 0.0;
  for (data::RecordIdx r : block.records) {
    for (data::ItemId id : encoded.bags[r]) {
      if (marks[id] == epoch) continue;
      marks[id] = epoch;
      union_weight += ItemWeight(dict, weights, id);
    }
  }
  if (union_weight <= 0.0) return 0.0;
  return KeyWeight(dict, weights, block.key) / union_weight *
         (1.0 + kBoundMargin);
}

double ExpertSimScore(const data::EncodedDataset& encoded, const Block& block,
                      const AttributeWeights& weights) {
  YVER_CHECK(!block.records.empty());
  if (block.records.size() < 2) return 0.0;
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < block.records.size(); ++i) {
    for (size_t j = i + 1; j < block.records.size(); ++j) {
      sum += SoftBagSimilarity(encoded, encoded.bags[block.records[i]],
                               encoded.bags[block.records[j]], weights);
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

}  // namespace yver::blocking
