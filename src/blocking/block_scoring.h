#ifndef YVER_BLOCKING_BLOCK_SCORING_H_
#define YVER_BLOCKING_BLOCK_SCORING_H_

#include <cstddef>
#include <vector>

#include "blocking/block.h"
#include "blocking/item_similarity.h"
#include "data/item_dictionary.h"

namespace yver::blocking {

/// ClusterJaccard block score (Kenig & Gal's set-monotone score): the
/// weighted size of the block key divided by the weighted size of the
/// union of the member records' item bags —
///   score(B) = w(key) / w(∪_{r ∈ B} items(r)).
/// A block whose members share most of their content scores near 1
/// (compact set); members with much non-shared content dilute the score.
/// With uniform weights this is exactly |key| / |union|.
double ClusterJaccardScore(const data::EncodedDataset& encoded,
                           const Block& block,
                           const AttributeWeights& weights);

/// The relative margin the score bounds add to their quotients. The
/// score's union weight and a bound's denominator are float sums of
/// non-negative weights in different orders, each within
/// (terms · 2^-53) relative of its exact value, so for fewer than
/// kMaxBoundTerms terms per sum the computed score exceeds the exact
/// quotient of the bound by a relative 2.3e-10 at most: well inside the
/// margin (DESIGN.md §9).
inline constexpr double kBoundMargin = 1e-9;
inline constexpr size_t kMaxBoundTerms = 1'000'000;

/// W(r) for every record r: the weighted size of its bag, summed in bag
/// order. Every bag must be strictly ascending (a set), and every weight
/// non-negative, or the bound below would not hold.
std::vector<double> BagWeights(const data::EncodedDataset& encoded,
                               const AttributeWeights& weights);

/// An upper bound on ClusterJaccardScore(encoded, block, weights) that
/// reads no bag: w(key) / max_{r ∈ B} W(r), times (1 + kBoundMargin).
/// Every member holds the key and the union holds every member's bag, so
/// the union weighs at least the heaviest bag. `bag_weights` is
/// BagWeights(encoded, weights); the caller ensures no union of the block
/// has kMaxBoundTerms items or more.
double ClusterJaccardUpperBound(const data::EncodedDataset& encoded,
                                const Block& block,
                                const AttributeWeights& weights,
                                const std::vector<double>& bag_weights);

/// A tighter, costlier upper bound on ClusterJaccardScore: the exact
/// quotient w(key) / w(∪ bags), times (1 + kBoundMargin), with the union
/// weight summed over a per-thread mark array in member order rather than
/// in the score's hash-set order. The same terms summed in another order
/// differ by float error only, which the margin covers, so this bounds the
/// score without reproducing its bits, and without a score's hashing and
/// allocation. The same caller condition on union size applies.
double ClusterJaccardUnionBound(const data::EncodedDataset& encoded,
                                const Block& block,
                                const AttributeWeights& weights);

/// Expert-similarity block score (the ExpertSim condition, §6.5): the mean
/// over member record pairs of a greedy soft-Jaccard between their bags,
/// where item affinity is fsim of Eq. 1. NOT set-monotone — the paper
/// found that losing monotonicity hurts quality (Table 9), which the
/// ablation bench reproduces.
double ExpertSimScore(const data::EncodedDataset& encoded, const Block& block,
                      const AttributeWeights& weights);

}  // namespace yver::blocking

#endif  // YVER_BLOCKING_BLOCK_SCORING_H_
