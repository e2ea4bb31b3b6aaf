#include "mining/fp_tree.h"

#include "util/check.h"

namespace yver::mining {

void FpTree::Reset(uint32_t num_ranks, size_t node_capacity) {
  headers_.assign(num_ranks, kNone);
  rank_support_.assign(num_ranks, 0);
  nodes_.clear();
  nodes_.reserve(node_capacity + 1);
  nodes_.push_back(Node{kRootRank});
}

void FpTree::Insert(const std::vector<uint32_t>& ranks, uint32_t count) {
  uint32_t cur = kRoot;
  for (uint32_t rank : ranks) {
    YVER_CHECK(rank < headers_.size());
    rank_support_[rank] += count;
    // Find a child with this rank.
    uint32_t child = nodes_[cur].first_child;
    while (child != kNone && nodes_[child].rank != rank) {
      child = nodes_[child].next_sibling;
    }
    if (child == kNone) {
      YVER_CHECK(nodes_.size() < UINT32_MAX);
      child = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(Node{rank, 0, cur, kNone, nodes_[cur].first_child,
                            headers_[rank]});
      nodes_[cur].first_child = child;
      headers_[rank] = child;
    }
    nodes_[child].count += count;
    cur = child;
  }
}

bool FpTree::IsSinglePath() const {
  for (uint32_t cur = nodes_[kRoot].first_child; cur != kNone;
       cur = nodes_[cur].first_child) {
    if (nodes_[cur].next_sibling != kNone) return false;
  }
  return true;
}

std::vector<std::pair<uint32_t, uint32_t>> FpTree::SinglePath() const {
  YVER_CHECK(IsSinglePath());
  std::vector<std::pair<uint32_t, uint32_t>> path;
  for (uint32_t cur = nodes_[kRoot].first_child; cur != kNone;
       cur = nodes_[cur].first_child) {
    path.emplace_back(nodes_[cur].rank, nodes_[cur].count);
  }
  return path;
}

}  // namespace yver::mining
