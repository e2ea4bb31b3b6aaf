#include "mining/fp_growth.h"

#include <algorithm>
#include <deque>
#include <span>
#include <unordered_map>
#include <utility>

#include "mining/fp_tree.h"
#include "mining/maximal_filter.h"
#include "util/check.h"

namespace yver::mining {

namespace {

// An FP-tree whose ranks map back to global item ids.
struct RankedTree {
  FpTree tree{0};
  std::vector<data::ItemId> rank_to_item;
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

constexpr uint32_t kNoRank = UINT32_MAX;

RankedTree BuildInitialTree(const std::vector<data::ItemBag>& transactions,
                            uint32_t minsup) {
  // Dictionary ids are dense, so item counts live in a plain vector.
  std::vector<uint32_t> counts;
  for (const auto& bag : transactions) {
    for (data::ItemId item : bag) {
      if (item >= counts.size()) counts.resize(static_cast<size_t>(item) + 1);
      ++counts[item];
    }
  }
  std::vector<std::pair<data::ItemId, uint32_t>> freq;
  size_t frequent_occurrences = 0;
  for (data::ItemId item = 0; item < counts.size(); ++item) {
    if (counts[item] >= minsup) {
      freq.emplace_back(item, counts[item]);
      frequent_occurrences += counts[item];
    }
  }
  std::vector<data::ItemId> rank_to_item = RankItems(freq);
  std::vector<uint32_t> item_to_rank(counts.size(), kNoRank);
  for (uint32_t r = 0; r < rank_to_item.size(); ++r) {
    item_to_rank[rank_to_item[r]] = r;
  }
  RankedTree ranked;
  ranked.tree.Reset(static_cast<uint32_t>(rank_to_item.size()),
                    frequent_occurrences);
  ranked.rank_to_item = std::move(rank_to_item);
  // Rank-map every transaction into one flat array, then insert them in
  // lexicographic order with equal transactions merged: each insert then
  // finds its next node at `first_child` (the newest child) or creates it.
  // The tree is an order-free function of the transaction multiset; only
  // node indices and chain orders change, which no miner output sees.
  std::vector<uint32_t> flat(frequent_occurrences);  // never reallocates
  std::vector<std::span<const uint32_t>> rows;
  rows.reserve(transactions.size());
  size_t end = 0;
  for (const auto& bag : transactions) {
    const size_t start = end;
    for (data::ItemId item : bag) {
      if (item_to_rank[item] != kNoRank) flat[end++] = item_to_rank[item];
    }
    if (end == start) continue;
    std::sort(flat.begin() + start, flat.begin() + end);
    rows.emplace_back(flat.data() + start, end - start);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  });
  std::vector<uint32_t> ranks;
  for (size_t k = 0; k < rows.size();) {
    const std::span<const uint32_t> current = rows[k];
    uint32_t count = 0;
    for (; k < rows.size() && std::ranges::equal(rows[k], current); ++k) {
      ++count;
    }
    ranks.assign(current.begin(), current.end());
    ranked.tree.Insert(ranks, count);
  }
  return ranked;
}

// Builds conditional trees for one miner. The projection buffers are
// free again before the miner recurses into a projection, and the tree
// at recursion depth d lives in trees_[d]: the next projection at that
// depth recycles its storage, so a depth-first miner allocates only
// while its trees still grow.
class Projector {
 public:
  // Projects `parent` onto `rank` into the tree at `depth` (which must
  // not be `parent` itself) in two passes up the header chain: the first
  // counts every prefix path's ranks, the second re-inserts each path,
  // mapped to conditional ranks and sorted, straight from the parent
  // tree. The frequent parent ranks are re-ranked by the same (count
  // desc, item id asc) order RankItems uses.
  const RankedTree& Project(const RankedTree& parent, uint32_t rank,
                            uint32_t minsup, size_t depth) {
    while (trees_.size() <= depth) trees_.emplace_back();
    RankedTree& cond = trees_[depth];
    const FpTree& tree = parent.tree;
    counts_.assign(rank, 0);  // only ranks < rank can occur
    size_t paths = 0;
    size_t path_nodes = 0;
    for (uint32_t n = tree.Header(rank); n != FpTree::kNone;
         n = tree.node(n).next_in_header) {
      const uint32_t count = tree.node(n).count;
      ++paths;
      for (uint32_t p = tree.node(n).parent; p != FpTree::kRoot;
           p = tree.node(p).parent) {
        counts_[tree.node(p).rank] += count;
        ++path_nodes;
      }
    }
    survivors_.clear();
    for (uint32_t r = 0; r < rank; ++r) {
      if (counts_[r] >= minsup) survivors_.push_back(r);
    }
    std::sort(survivors_.begin(), survivors_.end(),
              [&](uint32_t a, uint32_t b) {
                if (counts_[a] != counts_[b]) return counts_[a] > counts_[b];
                return parent.rank_to_item[a] < parent.rank_to_item[b];
              });
    old_to_new_.assign(rank, kNoRank);
    cond.tree.Reset(static_cast<uint32_t>(survivors_.size()),
                    std::min(path_nodes, paths * survivors_.size()));
    cond.rank_to_item.clear();
    for (uint32_t r = 0; r < survivors_.size(); ++r) {
      old_to_new_[survivors_[r]] = r;
      cond.rank_to_item.push_back(parent.rank_to_item[survivors_[r]]);
    }
    if (survivors_.empty()) return cond;
    for (uint32_t n = tree.Header(rank); n != FpTree::kNone;
         n = tree.node(n).next_in_header) {
      path_.clear();
      for (uint32_t p = tree.node(n).parent; p != FpTree::kRoot;
           p = tree.node(p).parent) {
        uint32_t nr = old_to_new_[tree.node(p).rank];
        if (nr != kNoRank) path_.push_back(nr);
      }
      if (path_.empty()) continue;
      std::sort(path_.begin(), path_.end());
      cond.tree.Insert(path_, tree.node(n).count);
    }
    return cond;
  }

 private:
  std::vector<uint32_t> counts_;      // parent rank -> conditional support
  std::vector<uint32_t> survivors_;   // frequent parent ranks, re-ranked
  std::vector<uint32_t> old_to_new_;  // parent rank -> conditional rank
  std::vector<uint32_t> path_;        // one prefix path, conditional ranks
  std::deque<RankedTree> trees_;      // stable addresses as it grows
};

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
  Projector projector;

  bool AtCap() const {
    return options.max_itemsets != 0 && out.size() >= options.max_itemsets;
  }

  void Mine(const RankedTree& ranked, std::vector<data::ItemId>& prefix,
            size_t depth) {
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
        const RankedTree& cond =
            projector.Project(ranked, rank, options.minsup, depth);
        if (cond.tree.num_ranks() > 0) Mine(cond, prefix, depth + 1);
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

  // Inserts if not subsumed. Does not remove previously inserted subsets
  // (a later insertion can strictly contain an earlier one); the
  // maximality filter after mining drops those.
  void Insert(FrequentItemset mfi) {
    if (IsSubsumed(mfi.items)) return;
    uint32_t idx = static_cast<uint32_t>(mfis_.size());
    for (data::ItemId item : mfi.items) postings_[item].push_back(idx);
    mfis_.push_back(std::move(mfi));
  }

  // The stored sets in insertion order.
  std::vector<FrequentItemset> Release() { return std::move(mfis_); }

  size_t size() const { return mfis_.size(); }

 private:
  std::vector<FrequentItemset> mfis_;
  std::unordered_map<data::ItemId, std::vector<uint32_t>> postings_;
};

struct MaxMiner {
  const MinerOptions& options;
  MfiStore store;
  bool capped = false;
  Projector projector;
  std::vector<data::ItemId> head_tail;

  explicit MaxMiner(const MinerOptions& opts) : options(opts) {}

  bool AtCap() const {
    return options.max_itemsets != 0 && store.size() >= options.max_itemsets;
  }

  void Mine(const RankedTree& ranked, std::vector<data::ItemId>& prefix,
            uint32_t prefix_support, size_t depth) {
    if (capped) return;
    if (ranked.tree.num_ranks() == 0) {
      if (!prefix.empty()) {
        store.Insert(MakeItemset(prefix, prefix_support));
      }
      return;
    }
    // FPMax pruning: if head ∪ tail is already covered, nothing new here.
    head_tail.assign(prefix.begin(), prefix.end());
    head_tail.insert(head_tail.end(), ranked.rank_to_item.begin(),
                     ranked.rank_to_item.end());
    std::sort(head_tail.begin(), head_tail.end());
    if (store.IsSubsumed(head_tail)) return;
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
      const RankedTree& cond =
          projector.Project(ranked, rank, options.minsup, depth);
      Mine(cond, prefix, support, depth + 1);
      prefix.pop_back();
    }
  }
};

// The maximality filter over the rank-ordered concatenation c_0..c_{m-1}
// of the per-rank stores: c_i survives iff no c_j with j < i has
// c_i ⊆ c_j and no c_j at all has c_i ⊊ c_j. That is exactly what
// inserting the concatenation into one MfiStore and dropping every stored
// set strictly inside another keeps: a candidate subsumed by a candidate
// the store rejected is subsumed by that candidate's own stored subsumer,
// which comes earlier still, and a strict superset that was rejected has
// a stored strict superset of its own. Candidates a per-rank store
// already saw to be strictly contained are dropped here too, by the
// second clause. The predicate reads only the candidates, so it runs per
// candidate chunk on the pool, through a dense item -> candidate postings
// index, writing into a keep slot; survivors are gathered serially in
// order.
std::vector<FrequentItemset> FilterSubsumed(
    std::vector<FrequentItemset> candidates, util::ThreadPool* pool) {
  const size_t m = candidates.size();
  YVER_CHECK(m < UINT32_MAX);
  size_t num_items = 0;
  for (const auto& c : candidates) {
    YVER_CHECK(!c.items.empty());  // miners never report the empty set
    num_items = std::max<size_t>(num_items, c.items.back() + 1);
  }
  // CSR postings: the candidates containing item k are
  // postings[offsets[k] .. offsets[k + 1]), ascending.
  std::vector<size_t> offsets(num_items + 1, 0);
  for (const auto& c : candidates) {
    for (data::ItemId item : c.items) ++offsets[item + 1];
  }
  for (size_t k = 0; k < num_items; ++k) offsets[k + 1] += offsets[k];
  std::vector<uint32_t> postings(offsets.back());
  {
    std::vector<size_t> fill(offsets.begin(), offsets.end() - 1);
    for (uint32_t i = 0; i < m; ++i) {
      for (data::ItemId item : candidates[i].items) {
        postings[fill[item]++] = i;
      }
    }
  }
  // 64-bit item-hash signatures: c_i ⊆ c_j needs sig_i ⊆ sig_j, which
  // rejects most pairs before the merge walk of IsSubsetOf.
  std::vector<uint64_t> signature(m, 0);
  for (size_t i = 0; i < m; ++i) {
    for (data::ItemId item : candidates[i].items) {
      signature[i] |= uint64_t{1} << ((item * 0x9E3779B97F4A7C15ULL) >> 58);
    }
  }
  std::vector<char> keep(m);
  auto check = [&](size_t i) {
    const std::vector<data::ItemId>& items = candidates[i].items;
    data::ItemId rarest = items[0];
    for (data::ItemId item : items) {
      if (offsets[item + 1] - offsets[item] <
          offsets[rarest + 1] - offsets[rarest]) {
        rarest = item;
      }
    }
    for (size_t k = offsets[rarest]; k < offsets[rarest + 1]; ++k) {
      const uint32_t j = postings[k];
      if ((signature[i] & ~signature[j]) != 0) continue;
      const std::vector<data::ItemId>& other = candidates[j].items;
      if ((other.size() > items.size() ||
           (j < i && other.size() == items.size())) &&
          IsSubsetOf(items, other)) {
        keep[i] = 0;
        return;
      }
    }
    keep[i] = 1;
  };
  auto check_range = [&check](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) check(i);
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelForChunked(m, check_range);
  } else {
    check_range(0, m);
  }
  std::vector<FrequentItemset> out;
  for (size_t i = 0; i < m; ++i) {
    if (keep[i]) out.push_back(std::move(candidates[i]));
  }
  return out;
}

}  // namespace

std::vector<FrequentItemset> MineFrequentItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options) {
  YVER_CHECK(options.minsup >= 1);
  RankedTree ranked = BuildInitialTree(transactions, options.minsup);
  AllMiner miner{options, {}, false, {}};
  std::vector<data::ItemId> prefix;
  miner.Mine(ranked, prefix, 0);
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
            std::vector<char>& in_prefix, size_t depth) {
    if (AtCap()) return;
    for (uint32_t rank = ranked.tree.num_ranks(); rank-- > 0;) {
      data::ItemId item = ranked.rank_to_item[rank];
      if (in_prefix[item]) continue;
      uint32_t support = ranked.tree.RankSupport(rank);
      if (support < options_.minsup) continue;
      const RankedTree& cond =
          projector_.Project(ranked, rank, options_.minsup, depth);
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
        Mine(cond, prefix, in_prefix, depth + 1);
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
  Projector projector_;
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
  miner.Mine(ranked, prefix, in_prefix, 0);
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
  // per_rank[t], making the concatenation order scheduling-invariant.
  std::vector<std::vector<FrequentItemset>> per_rank(num_ranks);
  auto mine_rank = [&](size_t task) {
    uint32_t rank = num_ranks - 1 - static_cast<uint32_t>(task);
    uint32_t support = ranked.tree.RankSupport(rank);
    if (support < options.minsup) return;
    MaxMiner miner(options);
    std::vector<data::ItemId> prefix = {ranked.rank_to_item[rank]};
    const RankedTree& cond =
        miner.projector.Project(ranked, rank, options.minsup, 0);
    miner.Mine(cond, prefix, support, 1);
    per_rank[task] = miner.store.Release();
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(num_ranks, mine_rank);
  } else {
    for (size_t task = 0; task < num_ranks; ++task) mine_rank(task);
  }

  size_t total = 0;
  for (const auto& rank_mfis : per_rank) total += rank_mfis.size();
  std::vector<FrequentItemset> candidates;
  candidates.reserve(total);
  for (auto& rank_mfis : per_rank) {
    for (auto& mfi : rank_mfis) candidates.push_back(std::move(mfi));
  }
  per_rank.clear();
  std::vector<FrequentItemset> out =
      FilterSubsumed(std::move(candidates), pool);
  if (options.max_itemsets != 0 && out.size() > options.max_itemsets) {
    out.resize(options.max_itemsets);
  }
  return out;
}

}  // namespace yver::mining
