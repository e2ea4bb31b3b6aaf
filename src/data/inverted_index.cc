#include "data/inverted_index.h"

#include <algorithm>

#include "util/check.h"

namespace yver::data {

InvertedIndex::InvertedIndex(const std::vector<ItemBag>& bags,
                             size_t num_items)
    : postings_(num_items) {
  for (size_t r = 0; r < bags.size(); ++r) {
    for (ItemId item : bags[r]) {
      YVER_CHECK(item < num_items);
      postings_[item].push_back(static_cast<RecordIdx>(r));
    }
  }
  // Bags are iterated in record order, so postings are already sorted.
}

namespace {

// First position in [first, last) whose value is >= target, found by
// doubling steps from `first` and a binary search inside the last step.
// Cheap when the answer is near `first`, which is the common case for a
// cursor that only moves forward.
const RecordIdx* Gallop(const RecordIdx* first, const RecordIdx* last,
                        RecordIdx target) {
  if (first == last || *first >= target) return first;
  // Invariant: *lo < target.
  const RecordIdx* lo = first;
  size_t step = 1;
  while (static_cast<size_t>(last - lo) > step && lo[step] < target) {
    lo += step;
    step *= 2;
  }
  const RecordIdx* hi =
      static_cast<size_t>(last - lo) > step ? lo + step + 1 : last;
  return std::lower_bound(lo + 1, hi, target);
}

}  // namespace

std::vector<RecordIdx> InvertedIndex::Support(
    const std::vector<ItemId>& itemset) const {
  if (itemset.empty()) return {};
  // Walk the rarest list and probe the others through monotone cursors;
  // a probe that overshoots moves the walk forward to its value.
  ItemId rarest = itemset[0];
  for (ItemId item : itemset) {
    if (postings_[item].size() < postings_[rarest].size()) rarest = item;
  }
  struct Cursor {
    const RecordIdx* pos;
    const RecordIdx* end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(itemset.size());
  for (ItemId item : itemset) {
    if (item == rarest) continue;
    cursors.push_back({postings_[item].data(),
                       postings_[item].data() + postings_[item].size()});
  }
  // Probe the shortest lists first: they reject the most candidates.
  std::sort(cursors.begin(), cursors.end(),
            [](const Cursor& a, const Cursor& b) {
              return a.end - a.pos < b.end - b.pos;
            });
  std::vector<RecordIdx> result;
  const std::vector<RecordIdx>& base = postings_[rarest];
  const RecordIdx* pos = base.data();
  const RecordIdx* const end = base.data() + base.size();
  while (pos != end) {
    const RecordIdx r = *pos;
    bool in_all = true;
    for (Cursor& c : cursors) {
      c.pos = Gallop(c.pos, c.end, r);
      if (c.pos == c.end) return result;  // no later record can match
      if (*c.pos != r) {
        // Nothing below *c.pos can match either: skip ahead to it.
        pos = Gallop(pos + 1, end, *c.pos);
        in_all = false;
        break;
      }
    }
    if (in_all) {
      result.push_back(r);
      ++pos;
    }
  }
  return result;
}

}  // namespace yver::data
