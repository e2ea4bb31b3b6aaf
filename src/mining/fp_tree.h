#ifndef YVER_MINING_FP_TREE_H_
#define YVER_MINING_FP_TREE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/item_dictionary.h"

namespace yver::mining {

/// Frequent-pattern tree (Han et al.), the core data structure of Borgelt's
/// FP-Growth which the paper uses to mine maximal frequent itemsets (§4.1,
/// Fig. 9).
///
/// Items inside the tree are *ranks*: dense indices assigned by descending
/// frequency of the frequent items of the underlying transaction set. The
/// owner (FP-Growth) keeps the rank -> ItemId mapping.
///
/// Nodes live in one contiguous arena and link to each other by index.
/// Index 0 is the root; since the root is never a child, a sibling or a
/// header-chain member, index 0 doubles as the null link (`kNone`) for
/// every link but `parent`, where it means "the root".
class FpTree {
 public:
  static constexpr uint32_t kNone = 0;
  static constexpr uint32_t kRoot = 0;
  static constexpr uint32_t kRootRank = UINT32_MAX;

  struct Node {
    uint32_t rank;                 // item rank; kRootRank for the root
    uint32_t count = 0;            // transactions through this node
    uint32_t parent = kRoot;       // the root is its own parent
    uint32_t first_child = kNone;  // first-child/next-sibling chain
    uint32_t next_sibling = kNone;
    uint32_t next_in_header = kNone;  // header-table chain for this rank
  };

  /// Creates an empty tree with `num_ranks` distinct item ranks.
  explicit FpTree(uint32_t num_ranks) { Reset(num_ranks); }

  /// Empties the tree and re-sizes it for `num_ranks` ranks, keeping the
  /// node storage for reuse and reserving room for `node_capacity` nodes
  /// besides the root.
  void Reset(uint32_t num_ranks, size_t node_capacity = 0);

  /// Inserts a transaction given as ranks sorted ascending (most frequent
  /// first), with multiplicity `count`.
  void Insert(const std::vector<uint32_t>& ranks, uint32_t count);

  const Node& node(uint32_t index) const { return nodes_[index]; }

  /// Head of the header chain for a rank (kNone when empty).
  uint32_t Header(uint32_t rank) const { return headers_[rank]; }

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
  std::vector<Node> nodes_;  // nodes_[kRoot] is the root
  std::vector<uint32_t> headers_;
  std::vector<uint32_t> rank_support_;
};

}  // namespace yver::mining

#endif  // YVER_MINING_FP_TREE_H_
