// Bit-equality of the column-gathered, pool-parallel ADTree trainer
// against the preserved serial row-major reference
// (tests/support/reference_adtree_trainer.*). Training is part of the
// determinism contract: at every pool size the production trainer must
// pick the same splitters in the same order, with the same conditions and
// the same prediction values down to the last bit, so the scores, the
// ranked resolution and the golden fixture cannot move.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "features/feature_schema.h"
#include "ml/adtree.h"
#include "ml/adtree_trainer.h"
#include "support/reference_adtree_trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yver::ml {
namespace {

using features::FeatureKind;
using features::FeatureSchema;
using features::FeatureVector;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Splitter order, conditions and prediction values, compared bit for bit.
void ExpectSameTree(const AdTree& expected, const AdTree& actual,
                    const std::string& context) {
  ASSERT_EQ(expected.splitters().size(), actual.splitters().size())
      << context << "\nexpected:\n"
      << expected.ToString() << "actual:\n"
      << actual.ToString();
  ASSERT_EQ(expected.predictions().size(), actual.predictions().size())
      << context;
  for (size_t i = 0; i < expected.splitters().size(); ++i) {
    const auto& e = expected.splitters()[i];
    const auto& a = actual.splitters()[i];
    EXPECT_EQ(e.condition.feature, a.condition.feature) << context << " #" << i;
    EXPECT_EQ(e.condition.is_nominal, a.condition.is_nominal)
        << context << " #" << i;
    EXPECT_TRUE(SameBits(e.condition.threshold, a.condition.threshold))
        << context << " #" << i;
    EXPECT_EQ(e.condition.nominal_value, a.condition.nominal_value)
        << context << " #" << i;
    EXPECT_EQ(e.order, a.order) << context << " #" << i;
    EXPECT_EQ(e.true_prediction, a.true_prediction) << context << " #" << i;
    EXPECT_EQ(e.false_prediction, a.false_prediction) << context << " #" << i;
  }
  for (size_t i = 0; i < expected.predictions().size(); ++i) {
    const auto& e = expected.predictions()[i];
    const auto& a = actual.predictions()[i];
    EXPECT_TRUE(SameBits(e.value, a.value))
        << context << " prediction " << i << ": " << e.value << " vs "
        << a.value;
    EXPECT_EQ(e.child_splitters, a.child_splitters) << context;
  }
}

void ExpectSameScores(const AdTree& expected, const AdTree& actual,
                      const std::vector<FeatureVector>& probes,
                      util::ThreadPool* pool, const std::string& context) {
  std::vector<double> want = expected.ScoreBatch(probes);
  std::vector<double> got = actual.ScoreBatch(probes, pool);
  ASSERT_EQ(want.size(), got.size());
  ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(double)))
      << context << ": ScoreBatch outputs differ";
}

// The pool sizes every case is trained at; nullptr is the serial path.
std::vector<std::unique_ptr<util::ThreadPool>> MakePools() {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (size_t threads : {1, 2, 8}) {
    pools.push_back(std::make_unique<util::ThreadPool>(threads));
  }
  return pools;
}

std::string PoolName(const util::ThreadPool* pool) {
  return pool == nullptr ? "pool=nullptr"
                         : "pool=" + std::to_string(pool->num_threads());
}

// Trains the reference once and the production trainer at every pool
// size; all must agree bit for bit, on the tree and on its scores.
void ExpectEquivalent(const std::vector<Instance>& instances,
                      const AdTreeTrainerOptions& options,
                      const std::string& context) {
  AdTree reference = ReferenceTrainAdTree(instances, options);
  std::vector<FeatureVector> probes;
  probes.reserve(instances.size());
  for (const auto& inst : instances) probes.push_back(inst.features);
  for (const auto& pool : MakePools()) {
    std::string where = context + " " + PoolName(pool.get());
    AdTree tree = TrainAdTree(instances, options, pool.get());
    ExpectSameTree(reference, tree, where);
    ExpectSameScores(reference, tree, probes, pool.get(), where);
  }
}

// How one feature's column is drawn in a random instance set.
struct ColumnProfile {
  double missing_rate = 0.0;
  // Numeric only: > 0 draws from this many evenly spaced values (heavy
  // duplication); 0 draws continuous uniforms.
  int distinct = 0;
};

struct RandomSetSpec {
  size_t n = 200;
  uint64_t seed = 1;
  // Missing rates drawn per feature from this list.
  std::vector<double> missing_rates = {0.0, 0.2, 0.5};
  // Per-feature chance of a heavily duplicated numeric column.
  double discrete_rate = 0.3;
  // Label rule: +1 when a noisy score over the present values is positive;
  // label_noise flips labels at random.
  double label_noise = 0.1;
};

std::vector<Instance> RandomInstances(const RandomSetSpec& spec) {
  const auto& schema = FeatureSchema::Get();
  util::Rng rng(spec.seed);
  std::vector<ColumnProfile> profiles(schema.size());
  for (auto& p : profiles) {
    p.missing_rate = spec.missing_rates[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(spec.missing_rates.size()) - 1))];
    if (rng.Bernoulli(spec.discrete_rate)) {
      p.distinct = static_cast<int>(rng.UniformInt(2, 5));
    }
  }
  std::vector<Instance> out;
  out.reserve(spec.n);
  for (size_t i = 0; i < spec.n; ++i) {
    Instance inst;
    inst.features.values.assign(schema.size(), features::MissingValue());
    for (size_t f = 0; f < schema.size(); ++f) {
      if (rng.Bernoulli(profiles[f].missing_rate)) continue;
      const auto& def = schema.def(f);
      double v;
      if (def.kind == FeatureKind::kNominal) {
        v = static_cast<double>(rng.UniformInt(0, def.num_nominal_values - 1));
      } else if (profiles[f].distinct > 0) {
        v = static_cast<double>(rng.UniformInt(0, profiles[f].distinct - 1)) /
            profiles[f].distinct;
      } else {
        v = rng.UniformDouble();
      }
      inst.features.values[f] = v;
    }
    // A learnable concept: the centred sum of the present values, plus
    // Gaussian noise.
    double score = rng.Gaussian() * 0.3;
    for (size_t f = 0; f < schema.size(); ++f) {
      double v = inst.features.values[f];
      if (std::isnan(v)) continue;
      score += schema.def(f).kind == FeatureKind::kNominal ? (v - 0.5) * 0.5
                                                           : (v - 0.5);
    }
    inst.label = score > 0.0 ? +1 : -1;
    if (rng.Bernoulli(spec.label_noise)) inst.label = -inst.label;
    inst.tag = inst.label > 0 ? ExpertTag::kYes : ExpertTag::kNo;
    out.push_back(std::move(inst));
  }
  return out;
}

size_t FirstFeatureOf(FeatureKind kind) {
  const auto& schema = FeatureSchema::Get();
  for (size_t f = 0; f < schema.size(); ++f) {
    if (schema.def(f).kind == kind) return f;
  }
  ADD_FAILURE() << "schema has no feature of the requested kind";
  return 0;
}

TEST(AdTreeEquivalenceTest, SeededRandomSets) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomSetSpec spec;
    spec.seed = seed;
    spec.n = 50 + 90 * seed;
    ExpectEquivalent(RandomInstances(spec), {},
                     "seed " + std::to_string(seed));
  }
}

TEST(AdTreeEquivalenceTest, NaNHeavyAndAllMissingFeatures) {
  RandomSetSpec spec;
  spec.seed = 21;
  spec.n = 400;
  spec.missing_rates = {0.9, 0.97, 1.0};
  auto instances = RandomInstances(spec);
  // Also blank out every other feature entirely.
  for (auto& inst : instances) {
    for (size_t f = 0; f < inst.features.values.size(); f += 2) {
      inst.features.values[f] = features::MissingValue();
    }
  }
  ExpectEquivalent(instances, {}, "nan-heavy");
}

TEST(AdTreeEquivalenceTest, DuplicateValuesAndExactZTies) {
  RandomSetSpec spec;
  spec.seed = 33;
  spec.n = 120;
  spec.discrete_rate = 1.0;
  spec.missing_rates = {0.0};
  auto instances = RandomInstances(spec);
  // Every numeric column a copy of the first, and no nominal feature
  // present: each numeric split ties exactly with the same split on every
  // other numeric feature, and the tie must go to the lowest feature
  // index, exactly as in the serial scan.
  const auto& schema = FeatureSchema::Get();
  std::vector<size_t> numeric;
  for (size_t f = 0; f < schema.size(); ++f) {
    if (schema.def(f).kind == FeatureKind::kNumeric) numeric.push_back(f);
  }
  ASSERT_GE(numeric.size(), 3u);
  util::Rng rng(34);
  for (auto& inst : instances) {
    double v = inst.features.values[numeric[0]];
    for (size_t f = 0; f < schema.size(); ++f) {
      bool nominal = schema.def(f).kind == FeatureKind::kNominal;
      inst.features.values[f] = nominal ? features::MissingValue() : v;
    }
    inst.label = (v >= 0.5) != rng.Bernoulli(0.15) ? +1 : -1;
  }
  ASSERT_EQ(ReferenceTrainAdTree(instances, {}).splitters()[0]
                .condition.feature,
            numeric[0]);
  // Every instance twice: duplicated rows double every weight sum without
  // reordering which condition wins.
  std::vector<Instance> doubled;
  for (const auto& inst : instances) {
    doubled.push_back(inst);
    doubled.push_back(inst);
  }
  AdTreeTrainerOptions options;
  options.num_rounds = 12;
  ExpectEquivalent(instances, options, "tied columns");
  ExpectEquivalent(doubled, options, "tied columns, duplicated rows");
}

TEST(AdTreeEquivalenceTest, NominalOnlyFeatures) {
  RandomSetSpec spec;
  spec.seed = 44;
  spec.n = 300;
  auto instances = RandomInstances(spec);
  const auto& schema = FeatureSchema::Get();
  for (auto& inst : instances) {
    for (size_t f = 0; f < schema.size(); ++f) {
      if (schema.def(f).kind == FeatureKind::kNumeric) {
        inst.features.values[f] = features::MissingValue();
      }
    }
  }
  auto reference = ReferenceTrainAdTree(instances, {});
  ASSERT_GT(reference.num_splitters(), 0u);
  EXPECT_TRUE(reference.splitters()[0].condition.is_nominal);
  ExpectEquivalent(instances, {}, "nominal only");
}

TEST(AdTreeEquivalenceTest, SingleClassLabels) {
  RandomSetSpec spec;
  spec.seed = 55;
  spec.n = 150;
  for (int label : {+1, -1}) {
    auto instances = RandomInstances(spec);
    for (auto& inst : instances) inst.label = label;
    ExpectEquivalent(instances, {}, "all labels " + std::to_string(label));
  }
}

TEST(AdTreeEquivalenceTest, SingleInstance) {
  RandomSetSpec spec;
  spec.seed = 66;
  spec.n = 1;
  spec.missing_rates = {0.0};
  for (int label : {+1, -1}) {
    auto instances = RandomInstances(spec);
    instances[0].label = label;
    ExpectEquivalent(instances, {}, "n=1 label " + std::to_string(label));
  }
}

TEST(AdTreeEquivalenceTest, MoreRoundsThanUsableSplits) {
  // One numeric feature with two distinct values is the only usable
  // split: forty rounds keep re-splitting it, on every node it reaches.
  const size_t numeric = FirstFeatureOf(FeatureKind::kNumeric);
  util::Rng rng(77);
  std::vector<Instance> instances;
  for (int i = 0; i < 60; ++i) {
    Instance inst;
    inst.features.values.assign(FeatureSchema::Get().size(),
                                features::MissingValue());
    bool high = rng.Bernoulli(0.5);
    inst.features.values[numeric] = high ? 1.0 : 0.0;
    inst.label = (high != rng.Bernoulli(0.2)) ? +1 : -1;
    instances.push_back(std::move(inst));
  }
  AdTreeTrainerOptions options;
  options.num_rounds = 40;
  ExpectEquivalent(instances, options, "one usable split, 40 rounds");

  // With every feature missing there is no condition at all: boosting
  // stops before its first round and both trainers return the prior.
  for (auto& inst : instances) {
    inst.features.values[numeric] = features::MissingValue();
  }
  EXPECT_EQ(ReferenceTrainAdTree(instances, options).num_splitters(), 0u);
  ExpectEquivalent(instances, options, "no usable split");
}

TEST(AdTreeEquivalenceTest, ThreeClassModelMatchesReferenceTrees) {
  RandomSetSpec spec;
  spec.seed = 88;
  spec.n = 360;
  auto instances = RandomInstances(spec);
  const ExpertTag tags[] = {ExpertTag::kNo, ExpertTag::kProbablyNo,
                            ExpertTag::kMaybe, ExpertTag::kProbablyYes,
                            ExpertTag::kYes};
  for (size_t i = 0; i < instances.size(); ++i) {
    instances[i].tag = tags[(i * 7 + static_cast<size_t>(
                                         instances[i].label > 0 ? 3 : 0)) %
                            5];
  }
  // The two binary problems TrainThreeClass trains, via the reference.
  auto relabeled = [&](auto positive) {
    std::vector<Instance> out = instances;
    for (auto& inst : out) inst.label = positive(inst.tag) ? +1 : -1;
    return out;
  };
  AdTree match_ref = ReferenceTrainAdTree(
      relabeled([](ExpertTag t) {
        return t == ExpertTag::kYes || t == ExpertTag::kProbablyYes;
      }),
      {});
  AdTree maybe_ref = ReferenceTrainAdTree(
      relabeled([](ExpertTag t) { return t == ExpertTag::kMaybe; }), {});
  for (const auto& pool : MakePools()) {
    ThreeClassAdt model = TrainThreeClass(instances, {}, pool.get());
    ExpectSameTree(match_ref, model.match_tree,
                   "match tree " + PoolName(pool.get()));
    ExpectSameTree(maybe_ref, model.maybe_tree,
                   "maybe tree " + PoolName(pool.get()));
  }
}

}  // namespace
}  // namespace yver::ml
