#ifndef YVER_TESTS_SUPPORT_REFERENCE_FP_GROWTH_H_
#define YVER_TESTS_SUPPORT_REFERENCE_FP_GROWTH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/item_dictionary.h"
#include "mining/fp_growth.h"
#include "mining/itemset.h"
#include "util/thread_pool.h"

/// The pointer-node FP-tree and FP-Growth miners as they were before the
/// arena tree, the hash-free projection and the parallel maximality
/// filter, preserved verbatim as the executable specification of mining:
/// one heap node per tree node, a heap path per conditional-pattern-base
/// entry, an `unordered_map` re-rank per projection, and a serial
/// cross-rank `MfiStore` insert/harvest for the maximal miner.
///
/// Test-only: tests/miner_equivalence_test.cc checks that the production
/// miners return the same itemsets, in the same order, with the same
/// supports, at every pool size. Never link this into production code.
namespace yver::mining::reference {

/// Frequent-pattern tree (Han et al.), the core data structure of Borgelt's
/// FP-Growth which the paper uses to mine maximal frequent itemsets (§4.1,
/// Fig. 9).
///
/// Items inside the tree are *ranks*: dense indices assigned by descending
/// frequency of the frequent items of the underlying transaction set. The
/// owner (FP-Growth) keeps the rank -> ItemId mapping.
class FpTree {
 public:
  struct Node {
    uint32_t rank;           // item rank; kRootRank for the root
    uint32_t count = 0;      // transactions through this node
    Node* parent = nullptr;  // nullptr for root
    Node* next_sibling = nullptr;   // first-child/next-sibling chain
    Node* first_child = nullptr;
    Node* next_in_header = nullptr;  // header-table chain for this rank
  };

  static constexpr uint32_t kRootRank = UINT32_MAX;

  /// Creates an empty tree with `num_ranks` distinct item ranks.
  explicit FpTree(uint32_t num_ranks);

  FpTree(const FpTree&) = delete;
  FpTree& operator=(const FpTree&) = delete;
  FpTree(FpTree&&) = default;
  FpTree& operator=(FpTree&&) = default;

  /// Inserts a transaction given as ranks sorted ascending (most frequent
  /// first), with multiplicity `count`.
  void Insert(const std::vector<uint32_t>& ranks, uint32_t count);

  /// Root node (never null).
  const Node* root() const { return root_; }

  /// Head of the header chain for a rank (may be null).
  const Node* Header(uint32_t rank) const { return headers_[rank]; }

  /// Total support of a rank across the tree.
  uint32_t RankSupport(uint32_t rank) const { return rank_support_[rank]; }

  uint32_t num_ranks() const {
    return static_cast<uint32_t>(headers_.size());
  }

  /// True when the tree consists of a single downward path.
  bool IsSinglePath() const;

  /// The ranks along the single path, top-down. Requires IsSinglePath().
  /// Also outputs the count at each node.
  std::vector<std::pair<uint32_t, uint32_t>> SinglePath() const;

  size_t num_nodes() const { return nodes_.size(); }

 private:
  Node* NewNode(uint32_t rank, Node* parent);

  std::vector<std::unique_ptr<Node>> nodes_;  // owns all nodes incl. root
  Node* root_ = nullptr;
  std::vector<Node*> headers_;
  std::vector<uint32_t> rank_support_;
};

std::vector<FrequentItemset> MineFrequentItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options);

std::vector<FrequentItemset> MineMaximalItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options, util::ThreadPool* pool = nullptr);

std::vector<FrequentItemset> MineClosedItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options);

}  // namespace yver::mining::reference

#endif  // YVER_TESTS_SUPPORT_REFERENCE_FP_GROWTH_H_
