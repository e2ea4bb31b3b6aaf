#ifndef YVER_MINING_FP_GROWTH_H_
#define YVER_MINING_FP_GROWTH_H_

#include <cstdint>
#include <vector>

#include "data/item_dictionary.h"
#include "mining/itemset.h"
#include "util/thread_pool.h"

namespace yver::mining {

/// Options controlling the FP-Growth miners.
struct MinerOptions {
  /// Minimum support (number of transactions) for a frequent itemset.
  uint32_t minsup = 2;

  /// Safety cap on the number of reported itemsets (0 = unlimited). When
  /// hit, mining stops early; MFIBlocks treats this as a signal to tighten
  /// frequent-item pruning.
  size_t max_itemsets = 0;

  /// Maximum itemset length to explore (0 = unlimited). Only honored by
  /// MineFrequentItemsets.
  size_t max_length = 0;
};

/// Mines all frequent itemsets (support >= minsup, non-empty) from the
/// transaction bags via FP-Growth. Itemset items are sorted ascending by
/// ItemId. Intended for moderate inputs and as a reference for the maximal
/// miner; MFIBlocks uses MineMaximalItemsets.
std::vector<FrequentItemset> MineFrequentItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options);

/// Mines the maximal frequent itemsets (MFIs) via FP-Growth with
/// FPMax-style subsumption pruning: a branch whose head ∪ tail is contained
/// in a known MFI cannot yield a new maximal set and is skipped.
///
/// Each frequent-item rank of the initial tree is mined as its own task
/// (in parallel when `pool` is non-null; each rank's projection is
/// independent) into a task-local store, and the task outputs are
/// concatenated in the serial rank order, least frequent rank first, as
/// c_0..c_{m-1}. A maximality filter then keeps c_i iff no c_j with j < i
/// has c_i ⊆ c_j and no c_j has c_i ⊊ c_j. It evaluates that predicate
/// per candidate, on the pool when there is one. This keeps exactly what
/// the serial FPMax store keeps, in its discovery order, so the returned
/// vector (contents and order) is identical for every pool size including
/// nullptr. One caveat: a non-zero `max_itemsets` cap applies per rank and
/// then truncates the filtered list, so a capped run may return a
/// different (still deterministic) subset than a single serial store
/// would.
std::vector<FrequentItemset> MineMaximalItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options, util::ThreadPool* pool = nullptr);

/// Mines the closed frequent itemsets (CFIs): frequent itemsets with no
/// strict superset of equal support. Implemented as a full FP-Growth
/// enumeration plus a closedness filter — more expensive than the maximal
/// miner but lossless on support structure. Used by the MFI-vs-CFI
/// blocking ablation.
std::vector<FrequentItemset> MineClosedItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options);

}  // namespace yver::mining

#endif  // YVER_MINING_FP_GROWTH_H_
