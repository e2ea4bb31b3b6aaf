#include "data/inverted_index.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/check.h"

namespace yver::data {

InvertedIndex::InvertedIndex(const std::vector<ItemBag>& bags,
                             size_t num_items)
    : postings_(num_items) {
  bag_offsets_.reserve(bags.size() + 1);
  bag_offsets_.push_back(0);
  for (size_t r = 0; r < bags.size(); ++r) {
    for (ItemId item : bags[r]) {
      YVER_CHECK(item < num_items);
      postings_[item].push_back(static_cast<RecordIdx>(r));
    }
    bag_items_.insert(bag_items_.end(), bags[r].begin(), bags[r].end());
    bag_offsets_.push_back(bag_items_.size());
  }
  // Bags are iterated in record order, so postings are already sorted.
}

namespace {

// Per-thread buffers of one group's intersection, reused across groups.
struct GroupScratch {
  std::vector<uint32_t> slot;  // item -> 1 + its bitset row, 0 = none yet
  std::vector<ItemId> used;    // items with a row, in row order
  std::vector<uint64_t> rows;  // used.size() rows of `words` words
  std::vector<uint64_t> acc;   // one itemset's running AND
};

}  // namespace

std::vector<std::vector<RecordIdx>> InvertedIndex::Supports(
    const std::vector<std::vector<ItemId>>& itemsets,
    util::ThreadPool* pool) const {
  const size_t m = itemsets.size();
  YVER_CHECK(m < UINT32_MAX);
  const size_t num_items = postings_.size();
  std::vector<std::vector<RecordIdx>> out(m);

  // CSR grouping by rarest item: members[offsets[k] .. offsets[k + 1]) are
  // the itemsets whose rarest item is k, ascending.
  std::vector<ItemId> rarest(m);
  std::vector<size_t> offsets(num_items + 1, 0);
  for (size_t i = 0; i < m; ++i) {
    if (itemsets[i].empty()) continue;
    ItemId best = itemsets[i][0];
    for (ItemId item : itemsets[i]) {
      YVER_CHECK(item < num_items);
      const size_t size = postings_[item].size();
      const size_t best_size = postings_[best].size();
      if (size < best_size || (size == best_size && item < best)) best = item;
    }
    rarest[i] = best;
    ++offsets[best + 1];
  }
  for (size_t k = 0; k < num_items; ++k) offsets[k + 1] += offsets[k];
  std::vector<uint32_t> members(offsets.back());
  std::vector<ItemId> groups;
  {
    std::vector<size_t> fill(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < m; ++i) {
      if (!itemsets[i].empty()) {
        members[fill[rarest[i]]++] = static_cast<uint32_t>(i);
      }
    }
    for (ItemId k = 0; k < num_items; ++k) {
      // An empty rarest list leaves every support in the group empty.
      if (offsets[k + 1] > offsets[k] && !postings_[k].empty()) {
        groups.push_back(k);
      }
    }
  }

  auto support_group = [&](size_t g) {
    thread_local GroupScratch s;
    const ItemId group_item = groups[g];
    const std::vector<RecordIdx>& base = postings_[group_item];
    const size_t words = (base.size() + 63) / 64;
    const uint32_t* const first = members.data() + offsets[group_item];
    const uint32_t* const last = members.data() + offsets[group_item + 1];
    if (s.slot.size() < num_items) s.slot.resize(num_items, 0);

    // One row per other item the group uses.
    s.used.clear();
    for (const uint32_t* i = first; i != last; ++i) {
      for (ItemId item : itemsets[*i]) {
        if (item == group_item || s.slot[item] != 0) continue;
        s.used.push_back(item);
        s.slot[item] = static_cast<uint32_t>(s.used.size());
      }
    }
    // Bit k of an item's row: record base[k] holds the item. One pass over
    // the bags of the rarest item's records fills every row at once.
    s.rows.assign(s.used.size() * words, 0);
    for (size_t k = 0; k < base.size(); ++k) {
      const uint64_t bit = uint64_t{1} << (k % 64);
      uint64_t* const column = s.rows.data() + k / 64;
      for (size_t p = bag_offsets_[base[k]]; p < bag_offsets_[base[k] + 1];
           ++p) {
        const uint32_t slot = s.slot[bag_items_[p]];
        if (slot != 0) column[(slot - 1) * words] |= bit;
      }
    }

    // Every bit of the rarest list, the last word masked to its length.
    const uint64_t tail = base.size() % 64 == 0
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (base.size() % 64)) - 1;
    for (const uint32_t* i = first; i != last; ++i) {
      s.acc.assign(words, ~uint64_t{0});
      s.acc[words - 1] = tail;
      for (ItemId item : itemsets[*i]) {
        if (item == group_item) continue;
        const uint64_t* row = s.rows.data() + (s.slot[item] - 1) * words;
        for (size_t w = 0; w < words; ++w) s.acc[w] &= row[w];
      }
      size_t count = 0;
      for (uint64_t word : s.acc) count += std::popcount(word);
      std::vector<RecordIdx>& support = out[*i];
      support.reserve(count);
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t word = s.acc[w]; word != 0; word &= word - 1) {
          support.push_back(base[w * 64 + std::countr_zero(word)]);
        }
      }
    }
    for (ItemId item : s.used) s.slot[item] = 0;
  };
  if (pool != nullptr) {
    pool->ParallelFor(groups.size(), support_group);
  } else {
    for (size_t g = 0; g < groups.size(); ++g) support_group(g);
  }
  return out;
}

}  // namespace yver::data
