#ifndef YVER_DATA_INVERTED_INDEX_H_
#define YVER_DATA_INVERTED_INDEX_H_

#include <vector>

#include "data/item_dictionary.h"
#include "util/thread_pool.h"

namespace yver::data {

/// Item -> sorted record postings, built from an encoded dataset. This is
/// the index created by the preprocessing step of the system architecture
/// (paper Fig. 9) and is what MFIBlocks uses to find the support set of a
/// mined itemset by postings intersection.
class InvertedIndex {
 public:
  /// Builds the index over the given bags; `num_items` is the dictionary
  /// size.
  InvertedIndex(const std::vector<ItemBag>& bags, size_t num_items);

  /// Sorted record indices containing the item.
  const std::vector<RecordIdx>& Postings(ItemId item) const {
    return postings_[item];
  }

  /// The support set of every itemset at once: out[i] holds the records
  /// containing every item of itemsets[i], ascending (empty for an empty
  /// itemset). Items may come in any order and repeat; each must be
  /// < num_items().
  ///
  /// Itemsets are grouped by their rarest item (fewest postings, ties to
  /// the lower id). A group gets one bitset over that item's postings per
  /// other item its itemsets use, so memory stays bounded by one group's
  /// working set, and fills them in one pass over the bags of the rarest
  /// item's records; each itemset ANDs its items' bitsets and reads the
  /// set bits back as record ids. Groups run on `pool` when it is
  /// non-null; each writes only its own itemsets' slots, so the result
  /// does not depend on the pool.
  std::vector<std::vector<RecordIdx>> Supports(
      const std::vector<std::vector<ItemId>>& itemsets,
      util::ThreadPool* pool = nullptr) const;

  size_t num_items() const { return postings_.size(); }

 private:
  std::vector<std::vector<RecordIdx>> postings_;
  // The bags in CSR form: record r's items are
  // bag_items_[bag_offsets_[r] .. bag_offsets_[r + 1]).
  std::vector<size_t> bag_offsets_;
  std::vector<ItemId> bag_items_;
};

}  // namespace yver::data

#endif  // YVER_DATA_INVERTED_INDEX_H_
