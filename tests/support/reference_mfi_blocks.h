#ifndef YVER_TESTS_SUPPORT_REFERENCE_MFI_BLOCKS_H_
#define YVER_TESTS_SUPPORT_REFERENCE_MFI_BLOCKS_H_

#include "blocking/mfi_blocks.h"
#include "data/item_dictionary.h"
#include "util/thread_pool.h"

/// MFIBlocks as it was before bound-pruned scoring, preserved as the
/// executable specification of the blocking stage: every in-range block is
/// built through a hashed dedup fold (keeping the longer key per record
/// set), every block is scored, and minTh is one ComputeMinThreshold over
/// all of them.
///
/// Test-only: tests/reference_mfi_blocks_test.cc checks that the
/// production RunMfiBlocks returns the same blocks (score bits included),
/// pairs and counters at every pool size. Never link this into production
/// code.
namespace yver::blocking::reference {

/// Returns num_blocks_scored == num_blocks_considered: it scores them all.
MfiBlocksResult RunMfiBlocks(const data::EncodedDataset& encoded,
                             const MfiBlocksConfig& config,
                             util::ThreadPool* pool = nullptr);

}  // namespace yver::blocking::reference

#endif  // YVER_TESTS_SUPPORT_REFERENCE_MFI_BLOCKS_H_
