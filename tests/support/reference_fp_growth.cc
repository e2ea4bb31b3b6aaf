#include "support/reference_fp_growth.h"

#include <algorithm>
#include <unordered_map>

#include "mining/maximal_filter.h"
#include "util/check.h"

namespace yver::mining::reference {

FpTree::FpTree(uint32_t num_ranks)
    : headers_(num_ranks, nullptr), rank_support_(num_ranks, 0) {
  root_ = NewNode(kRootRank, nullptr);
}

FpTree::Node* FpTree::NewNode(uint32_t rank, Node* parent) {
  nodes_.push_back(std::make_unique<Node>());
  Node* n = nodes_.back().get();
  n->rank = rank;
  n->parent = parent;
  return n;
}

void FpTree::Insert(const std::vector<uint32_t>& ranks, uint32_t count) {
  Node* cur = root_;
  for (uint32_t rank : ranks) {
    YVER_CHECK(rank < headers_.size());
    rank_support_[rank] += count;
    // Find a child with this rank.
    Node* child = cur->first_child;
    while (child != nullptr && child->rank != rank) {
      child = child->next_sibling;
    }
    if (child == nullptr) {
      child = NewNode(rank, cur);
      child->next_sibling = cur->first_child;
      cur->first_child = child;
      child->next_in_header = headers_[rank];
      headers_[rank] = child;
    }
    child->count += count;
    cur = child;
  }
}

bool FpTree::IsSinglePath() const {
  const Node* cur = root_;
  while (cur != nullptr) {
    if (cur->first_child != nullptr && cur->first_child->next_sibling) {
      return false;
    }
    cur = cur->first_child;
  }
  return true;
}

std::vector<std::pair<uint32_t, uint32_t>> FpTree::SinglePath() const {
  YVER_CHECK(IsSinglePath());
  std::vector<std::pair<uint32_t, uint32_t>> path;
  const Node* cur = root_->first_child;
  while (cur != nullptr) {
    path.emplace_back(cur->rank, cur->count);
    cur = cur->first_child;
  }
  return path;
}



namespace {

// An FP-tree whose ranks map back to global item ids.
struct RankedTree {
  FpTree tree;
  std::vector<data::ItemId> rank_to_item;

  explicit RankedTree(uint32_t num_ranks) : tree(num_ranks) {}
};

// Orders candidate (item, frequency) pairs by descending frequency, tie on
// ascending item id, and assigns ranks.
std::vector<data::ItemId> RankItems(
    std::vector<std::pair<data::ItemId, uint32_t>>& freq) {
  std::sort(freq.begin(), freq.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<data::ItemId> rank_to_item;
  rank_to_item.reserve(freq.size());
  for (const auto& [item, count] : freq) rank_to_item.push_back(item);
  return rank_to_item;
}

RankedTree BuildInitialTree(const std::vector<data::ItemBag>& transactions,
                            uint32_t minsup) {
  std::unordered_map<data::ItemId, uint32_t> counts;
  for (const auto& bag : transactions) {
    for (data::ItemId item : bag) ++counts[item];
  }
  std::vector<std::pair<data::ItemId, uint32_t>> freq;
  freq.reserve(counts.size());
  for (const auto& [item, count] : counts) {
    if (count >= minsup) freq.emplace_back(item, count);
  }
  std::vector<data::ItemId> rank_to_item = RankItems(freq);
  std::unordered_map<data::ItemId, uint32_t> item_to_rank;
  item_to_rank.reserve(rank_to_item.size());
  for (uint32_t r = 0; r < rank_to_item.size(); ++r) {
    item_to_rank[rank_to_item[r]] = r;
  }
  RankedTree ranked(static_cast<uint32_t>(rank_to_item.size()));
  ranked.rank_to_item = std::move(rank_to_item);
  std::vector<uint32_t> ranks;
  for (const auto& bag : transactions) {
    ranks.clear();
    for (data::ItemId item : bag) {
      auto it = item_to_rank.find(item);
      if (it != item_to_rank.end()) ranks.push_back(it->second);
    }
    if (ranks.empty()) continue;
    std::sort(ranks.begin(), ranks.end());
    ranked.tree.Insert(ranks, 1);
  }
  return ranked;
}

// Builds the conditional tree for `rank` within `parent`: collect the
// prefix path of every node in rank's header chain, recount, filter by
// minsup, re-rank, and insert.
RankedTree BuildConditional(const RankedTree& parent, uint32_t rank,
                            uint32_t minsup) {
  // Conditional pattern base: (path of parent-ranks, count).
  std::vector<std::pair<std::vector<uint32_t>, uint32_t>> base;
  std::vector<uint32_t> cond_counts(rank, 0);  // only ranks < rank can occur
  for (const FpTree::Node* n = parent.tree.Header(rank); n != nullptr;
       n = n->next_in_header) {
    std::vector<uint32_t> path;
    for (const FpTree::Node* p = n->parent;
         p != nullptr && p->rank != FpTree::kRootRank; p = p->parent) {
      path.push_back(p->rank);
      cond_counts[p->rank] += n->count;
    }
    if (!path.empty()) base.emplace_back(std::move(path), n->count);
  }
  std::vector<std::pair<data::ItemId, uint32_t>> freq;
  std::vector<uint32_t> old_rank_to_new(rank, UINT32_MAX);
  for (uint32_t r = 0; r < rank; ++r) {
    if (cond_counts[r] >= minsup) {
      freq.emplace_back(parent.rank_to_item[r], cond_counts[r]);
    }
  }
  std::vector<data::ItemId> rank_to_item = RankItems(freq);
  std::unordered_map<data::ItemId, uint32_t> item_to_new_rank;
  for (uint32_t r = 0; r < rank_to_item.size(); ++r) {
    item_to_new_rank[rank_to_item[r]] = r;
  }
  for (uint32_t r = 0; r < rank; ++r) {
    auto it = item_to_new_rank.find(parent.rank_to_item[r]);
    if (it != item_to_new_rank.end()) old_rank_to_new[r] = it->second;
  }
  RankedTree cond(static_cast<uint32_t>(rank_to_item.size()));
  cond.rank_to_item = std::move(rank_to_item);
  std::vector<uint32_t> ranks;
  for (const auto& [path, count] : base) {
    ranks.clear();
    for (uint32_t old : path) {
      uint32_t nr = old_rank_to_new[old];
      if (nr != UINT32_MAX) ranks.push_back(nr);
    }
    if (ranks.empty()) continue;
    std::sort(ranks.begin(), ranks.end());
    cond.tree.Insert(ranks, count);
  }
  return cond;
}

FrequentItemset MakeItemset(std::vector<data::ItemId> items,
                            uint32_t support) {
  std::sort(items.begin(), items.end());
  return FrequentItemset{std::move(items), support};
}

// ---------------------------------------------------------------------------
// All frequent itemsets.

struct AllMiner {
  const MinerOptions& options;
  std::vector<FrequentItemset> out;
  bool capped = false;

  bool AtCap() const {
    return options.max_itemsets != 0 && out.size() >= options.max_itemsets;
  }

  void Mine(const RankedTree& ranked, std::vector<data::ItemId>& prefix) {
    if (capped) return;
    for (uint32_t rank = ranked.tree.num_ranks(); rank-- > 0;) {
      uint32_t support = ranked.tree.RankSupport(rank);
      if (support < options.minsup) continue;
      prefix.push_back(ranked.rank_to_item[rank]);
      out.push_back(MakeItemset(prefix, support));
      if (AtCap()) {
        capped = true;
        prefix.pop_back();
        return;
      }
      if (options.max_length == 0 || prefix.size() < options.max_length) {
        RankedTree cond = BuildConditional(ranked, rank, options.minsup);
        if (cond.tree.num_ranks() > 0) Mine(cond, prefix);
      }
      prefix.pop_back();
      if (capped) return;
    }
  }
};

// ---------------------------------------------------------------------------
// Maximal frequent itemsets (FPMax-style).

// Stores MFIs and answers "is this candidate a subset of a stored MFI".
class MfiStore {
 public:
  explicit MfiStore(size_t /*num_items_hint*/) {}

  // Candidate must be sorted ascending.
  bool IsSubsumed(const std::vector<data::ItemId>& candidate) const {
    if (candidate.empty()) return !mfis_.empty();
    // Scan the postings of the candidate item with the fewest postings.
    const std::vector<uint32_t>* best = nullptr;
    for (data::ItemId item : candidate) {
      auto it = postings_.find(item);
      if (it == postings_.end()) return false;  // item in no MFI
      if (best == nullptr || it->second.size() < best->size()) {
        best = &it->second;
      }
    }
    for (uint32_t idx : *best) {
      if (mfis_[idx].items.size() >= candidate.size() &&
          IsSubsetOf(candidate, mfis_[idx].items)) {
        return true;
      }
    }
    return false;
  }

  // Inserts if not subsumed. Does not remove previously inserted subsets;
  // the final Harvest() pass filters those out.
  void Insert(FrequentItemset mfi) {
    if (IsSubsumed(mfi.items)) return;
    uint32_t idx = static_cast<uint32_t>(mfis_.size());
    for (data::ItemId item : mfi.items) postings_[item].push_back(idx);
    mfis_.push_back(std::move(mfi));
  }

  // Returns the maximal sets only (later insertions can strictly contain
  // earlier ones).
  std::vector<FrequentItemset> Harvest() {
    std::vector<FrequentItemset> out;
    for (size_t i = 0; i < mfis_.size(); ++i) {
      bool subsumed = false;
      const auto& items = mfis_[i].items;
      if (!items.empty()) {
        const std::vector<uint32_t>* best = nullptr;
        for (data::ItemId item : items) {
          const auto& plist = postings_[item];
          if (best == nullptr || plist.size() < best->size()) best = &plist;
        }
        for (uint32_t idx : *best) {
          if (idx != i && mfis_[idx].items.size() > items.size() &&
              IsSubsetOf(items, mfis_[idx].items)) {
            subsumed = true;
            break;
          }
        }
      }
      if (!subsumed) out.push_back(std::move(mfis_[i]));
    }
    return out;
  }

  size_t size() const { return mfis_.size(); }

 private:
  std::vector<FrequentItemset> mfis_;
  std::unordered_map<data::ItemId, std::vector<uint32_t>> postings_;
};

struct MaxMiner {
  const MinerOptions& options;
  MfiStore store;
  bool capped = false;

  explicit MaxMiner(const MinerOptions& opts) : options(opts), store(0) {}

  bool AtCap() const {
    return options.max_itemsets != 0 && store.size() >= options.max_itemsets;
  }

  void Mine(const RankedTree& ranked, std::vector<data::ItemId>& prefix,
            uint32_t prefix_support) {
    if (capped) return;
    if (ranked.tree.num_ranks() == 0) {
      if (!prefix.empty()) {
        store.Insert(MakeItemset(prefix, prefix_support));
      }
      return;
    }
    // FPMax pruning: if head ∪ tail is already covered, nothing new here.
    {
      std::vector<data::ItemId> head_tail = prefix;
      head_tail.insert(head_tail.end(), ranked.rank_to_item.begin(),
                       ranked.rank_to_item.end());
      std::sort(head_tail.begin(), head_tail.end());
      if (store.IsSubsumed(head_tail)) return;
    }
    if (ranked.tree.IsSinglePath()) {
      // The whole path joined with the prefix is the unique maximal set of
      // this branch; its support is the count at the path's deepest node.
      auto path = ranked.tree.SinglePath();
      std::vector<data::ItemId> items = prefix;
      uint32_t support = prefix_support;
      for (const auto& [rank, count] : path) {
        items.push_back(ranked.rank_to_item[rank]);
        support = count;  // counts are non-increasing down the path
      }
      store.Insert(MakeItemset(std::move(items), support));
      return;
    }
    for (uint32_t rank = ranked.tree.num_ranks(); rank-- > 0;) {
      if (capped || AtCap()) {
        capped = true;
        return;
      }
      uint32_t support = ranked.tree.RankSupport(rank);
      if (support < options.minsup) continue;
      prefix.push_back(ranked.rank_to_item[rank]);
      RankedTree cond = BuildConditional(ranked, rank, options.minsup);
      Mine(cond, prefix, support);
      prefix.pop_back();
    }
  }
};

}  // namespace

std::vector<FrequentItemset> MineFrequentItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options) {
  YVER_CHECK(options.minsup >= 1);
  RankedTree ranked = BuildInitialTree(transactions, options.minsup);
  AllMiner miner{options, {}, false};
  std::vector<data::ItemId> prefix;
  miner.Mine(ranked, prefix);
  return std::move(miner.out);
}

namespace {

// FPClose-style closed miner (Grahne & Zhu): depth-first over ranks with
// two accelerations — *closure jumps* (items whose conditional support
// equals the prefix support belong to every supporting transaction and
// join the prefix immediately) and *subsumption pruning* (a prefix
// contained in a known closed set of equal support cannot lead to new
// closed sets). A plain enumerate-then-filter approach is exponential
// here: near-duplicate records share dozens of items, so all-frequent-
// itemset enumeration blows up as 2^|shared|.
class ClosedMiner {
 public:
  explicit ClosedMiner(const MinerOptions& options) : options_(options) {}

  bool AtCap() const {
    return options_.max_itemsets != 0 && cfis_.size() >= options_.max_itemsets;
  }

  void Mine(const RankedTree& ranked, std::vector<data::ItemId>& prefix,
            std::vector<char>& in_prefix) {
    if (AtCap()) return;
    for (uint32_t rank = ranked.tree.num_ranks(); rank-- > 0;) {
      data::ItemId item = ranked.rank_to_item[rank];
      if (in_prefix[item]) continue;
      uint32_t support = ranked.tree.RankSupport(rank);
      if (support < options_.minsup) continue;
      RankedTree cond = BuildConditional(ranked, rank, options_.minsup);
      // Closure jump: conditional items occurring in every supporting
      // transaction extend the prefix at the same support.
      std::vector<data::ItemId> added = {item};
      for (uint32_t r2 = 0; r2 < cond.tree.num_ranks(); ++r2) {
        if (cond.tree.RankSupport(r2) == support &&
            !in_prefix[cond.rank_to_item[r2]]) {
          added.push_back(cond.rank_to_item[r2]);
        }
      }
      for (data::ItemId id : added) {
        prefix.push_back(id);
        in_prefix[id] = 1;
      }
      std::vector<data::ItemId> candidate = prefix;
      std::sort(candidate.begin(), candidate.end());
      if (!IsSubsumed(candidate, support)) {
        Insert(candidate, support);
        Mine(cond, prefix, in_prefix);
      }
      for (data::ItemId id : added) {
        in_prefix[id] = 0;
      }
      prefix.resize(prefix.size() - added.size());
      if (AtCap()) return;
    }
  }

  std::vector<FrequentItemset> Harvest() { return std::move(cfis_); }

 private:
  bool IsSubsumed(const std::vector<data::ItemId>& candidate,
                  uint32_t support) const {
    auto it = by_support_.find(support);
    if (it == by_support_.end()) return false;
    // Scan the postings of the candidate's rarest item at this support.
    const std::vector<uint32_t>* best = nullptr;
    for (data::ItemId item : candidate) {
      auto pit = it->second.find(item);
      if (pit == it->second.end()) return false;
      if (best == nullptr || pit->second.size() < best->size()) {
        best = &pit->second;
      }
    }
    for (uint32_t idx : *best) {
      if (cfis_[idx].items.size() >= candidate.size() &&
          IsSubsetOf(candidate, cfis_[idx].items)) {
        return true;
      }
    }
    return false;
  }

  void Insert(std::vector<data::ItemId> items, uint32_t support) {
    uint32_t idx = static_cast<uint32_t>(cfis_.size());
    auto& postings = by_support_[support];
    for (data::ItemId item : items) postings[item].push_back(idx);
    cfis_.push_back(FrequentItemset{std::move(items), support});
  }

  const MinerOptions& options_;
  std::vector<FrequentItemset> cfis_;
  // support -> item -> CFI indices containing it at that support.
  std::unordered_map<uint32_t,
                     std::unordered_map<data::ItemId, std::vector<uint32_t>>>
      by_support_;
};

}  // namespace

std::vector<FrequentItemset> MineClosedItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options) {
  YVER_CHECK(options.minsup >= 1);
  RankedTree ranked = BuildInitialTree(transactions, options.minsup);
  ClosedMiner miner(options);
  std::vector<data::ItemId> prefix;
  // Item-id indexed presence mask; dictionary ids are dense.
  data::ItemId max_item = 0;
  for (data::ItemId item : ranked.rank_to_item) {
    max_item = std::max(max_item, item);
  }
  std::vector<char> in_prefix(static_cast<size_t>(max_item) + 1, 0);
  miner.Mine(ranked, prefix, in_prefix);
  return miner.Harvest();
}

std::vector<FrequentItemset> MineMaximalItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options, util::ThreadPool* pool) {
  YVER_CHECK(options.minsup >= 1);
  RankedTree ranked = BuildInitialTree(transactions, options.minsup);
  const uint32_t num_ranks = ranked.tree.num_ranks();
  if (num_ranks == 0) return {};
  if (ranked.tree.IsSinglePath()) {
    // The whole tree is one path: its deepest frequent prefix is the
    // unique MFI.
    std::vector<data::ItemId> items;
    uint32_t support = 0;
    for (const auto& [rank, count] : ranked.tree.SinglePath()) {
      items.push_back(ranked.rank_to_item[rank]);
      support = count;
    }
    return {MakeItemset(std::move(items), support)};
  }

  // One task per frequent-item rank, walked in the serial FPMax order
  // (least frequent rank first). Each task mines rank's conditional
  // projection with a task-local store; projections only read the shared
  // initial tree, so tasks are independent. Task t's output lands in
  // per_rank[t], making the merge order scheduling-invariant.
  std::vector<std::vector<FrequentItemset>> per_rank(num_ranks);
  auto mine_rank = [&](size_t task) {
    uint32_t rank = num_ranks - 1 - static_cast<uint32_t>(task);
    uint32_t support = ranked.tree.RankSupport(rank);
    if (support < options.minsup) return;
    MaxMiner miner(options);
    std::vector<data::ItemId> prefix = {ranked.rank_to_item[rank]};
    RankedTree cond = BuildConditional(ranked, rank, options.minsup);
    miner.Mine(cond, prefix, support);
    per_rank[task] = miner.store.Harvest();
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(num_ranks, mine_rank);
  } else {
    for (size_t task = 0; task < num_ranks; ++task) mine_rank(task);
  }

  // Cross-rank maximality filter over the rank-ordered concatenation. A
  // superset always has a max-rank >= its subsets' and therefore lives in
  // an earlier (or the same) task, so the insert-time subsumption check of
  // MfiStore sees every potential subsumer before its victims; the final
  // Harvest keeps the surviving sets in insertion order — exactly the
  // serial FPMax discovery order.
  MfiStore store(0);
  for (auto& rank_mfis : per_rank) {
    for (auto& mfi : rank_mfis) store.Insert(std::move(mfi));
  }
  std::vector<FrequentItemset> out = store.Harvest();
  if (options.max_itemsets != 0 && out.size() > options.max_itemsets) {
    out.resize(options.max_itemsets);
  }
  return out;
}

}  // namespace yver::mining::reference
