#ifndef YVER_TESTS_SUPPORT_REFERENCE_ADTREE_TRAINER_H_
#define YVER_TESTS_SUPPORT_REFERENCE_ADTREE_TRAINER_H_

#include <vector>

#include "ml/adtree.h"
#include "ml/adtree_trainer.h"
#include "ml/instances.h"

namespace yver::ml {

/// The original serial, row-major ADTree trainer, preserved verbatim as
/// the executable specification of boosting: each round walks every
/// (prediction node, feature, condition) triple over the node's members,
/// reading each value through its instance's own feature vector, and keeps
/// the first strict minimum of Z.
///
/// Test-only: tests/adtree_equivalence_test.cc checks that the production
/// column-gathered, pool-parallel TrainAdTree produces bit-identical trees
/// at every pool size. Never link this into production code.
AdTree ReferenceTrainAdTree(const std::vector<Instance>& instances,
                            const AdTreeTrainerOptions& options);

}  // namespace yver::ml

#endif  // YVER_TESTS_SUPPORT_REFERENCE_ADTREE_TRAINER_H_
