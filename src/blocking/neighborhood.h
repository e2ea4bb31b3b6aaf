#ifndef YVER_BLOCKING_NEIGHBORHOOD_H_
#define YVER_BLOCKING_NEIGHBORHOOD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "blocking/block.h"
#include "util/thread_pool.h"

namespace yver::blocking {

/// The NG cap shared by the MFIBlocks block-size filter and the
/// sparse-neighborhood condition: ceil(ng * minsup) per the paper, clamped
/// to >= 2 because a block needs at least two records to emit a pair.
/// Both call sites MUST use this helper — they once drifted apart
/// (truncation in the size filter vs ceil in the neighborhood cap), so for
/// fractional ng * minsup a block could pass one cap and fail the other.
size_t NgCap(double ng, uint32_t minsup);

/// Sparse-neighborhood (SN) enforcement — Algorithm 1 lines 9-14.
///
/// The NG (neighborhood growth) parameter caps how many candidate
/// neighbors a single record may accumulate across the (possibly
/// overlapping) blocks of one iteration: a record's neighborhood may not
/// exceed ceil(NG * minsup). ComputeMinThreshold scans each record's
/// blocks in descending score order and, where the accumulated distinct
/// neighbor count would exceed the cap, raises the global minTh to the
/// score of the offending block so that the subsequent filter
/// (score > minTh) restores sparsity.
///
/// Returns the minimal threshold; blocks with score <= threshold violate
/// the SN condition for at least one record.
///
/// With a `pool`, records are scanned in parallel chunks whose maxima are
/// combined afterwards; max is exact in any order, so the threshold is
/// identical for every pool size.
double ComputeMinThreshold(const std::vector<Block>& blocks,
                           size_t num_records, double ng, uint32_t minsup,
                           util::ThreadPool* pool = nullptr);

/// The threshold of the sub-list blocks[members[0]], blocks[members[1]],
/// ... (`members` strictly ascending), without copying a block. Ties
/// still go to the lower index in `blocks`. Dropping blocks never raises
/// the threshold: a record's neighbors after any prefix of its sub-list
/// are among its neighbors after the blocks of the full list that score
/// at least as high, so it overflows no earlier in score.
double ComputeMinThreshold(const std::vector<Block>& blocks,
                           const std::vector<uint32_t>& members,
                           size_t num_records, double ng, uint32_t minsup,
                           util::ThreadPool* pool = nullptr);

/// The share of an iteration's blocks, those with the highest score
/// bounds, that ScoreAboveMinThreshold scores first to learn a lower bound
/// on minTh.
inline constexpr double kSeedFraction = 0.1;

/// Outcome of ScoreAboveMinThreshold.
struct BoundedThreshold {
  /// The threshold over all blocks, as if every one had been scored.
  double min_th = 0.0;
  /// The seed's threshold L <= min_th.
  double seed_th = 0.0;
  /// Indices of the blocks scoring above min_th, ascending.
  std::vector<uint32_t> kept;
  /// How many blocks were scored.
  size_t num_scored = 0;
  double score_seconds = 0.0;
  double threshold_seconds = 0.0;
};

/// Scores only the blocks that can beat the sparse-neighborhood threshold
/// and returns the threshold ComputeMinThreshold would return had every
/// block been scored. Requires bounds[i] >= score(blocks[i]) for all i,
/// and at most NgCap(ng, minsup) records per block (MFIBlocks' size
/// filter), so that no block overflows a record on its own.
///
/// The ceil(kSeedFraction · |blocks|) blocks with the highest bounds (ties
/// to the lower index) are scored first; their threshold L is a lower
/// bound on minTh, because dropping blocks never raises the threshold.
/// Then every other block with bounds[i] > L is scored. A record whose
/// full-list overflow score s exceeds L overflows at the same block among
/// the blocks scoring above L, since every block it visits first scores at
/// least s; a record with s <= L contributes at most L there too. So
/// minTh = max(L, threshold of the blocks scoring above L), and a block
/// with bounds[i] <= L can be neither scored above L nor kept. A non-null
/// `refine` is a tighter, costlier bound (refine(b) >= score(b)) tried
/// before scoring a non-seed block: one it puts at or below L is left
/// unscored as well. Scores are written to blocks[i].score for every
/// scored block; the others keep theirs. Seed scoring runs per block on
/// `pool`, the refining pass per block chunk.
BoundedThreshold ScoreAboveMinThreshold(
    std::vector<Block>& blocks, const std::vector<double>& bounds,
    const std::function<double(const Block&)>& score, size_t num_records,
    double ng, uint32_t minsup, util::ThreadPool* pool = nullptr,
    const std::function<double(const Block&)>& refine = nullptr);

/// Neighborhood size helper: number of distinct records co-blocked with
/// each record across `blocks` (only counting blocks with score >
/// threshold). Exposed for tests and diagnostics.
std::vector<size_t> NeighborhoodSizes(const std::vector<Block>& blocks,
                                      size_t num_records, double threshold);

}  // namespace yver::blocking

#endif  // YVER_BLOCKING_NEIGHBORHOOD_H_
