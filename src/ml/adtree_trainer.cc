#include "ml/adtree_trainer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/check.h"

namespace yver::ml {

namespace {

// Runs fn(begin, end) over [0, n): chunked across the pool when there is
// one with more than one worker, otherwise as a single inline call.
void ForChunks(util::ThreadPool* pool, size_t n,
               const std::function<void(size_t, size_t)>& fn) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    fn(0, n);
  } else {
    pool->ParallelForChunked(n, fn);
  }
}

// Feature-major copy of the training matrix: column f holds every
// instance's value of feature f, so a scan over one feature reads one
// contiguous array instead of chasing each instance's own heap vector.
struct Columns {
  size_t n = 0;
  std::vector<double> values;  // values[f * n + i]

  const double* column(size_t f) const { return values.data() + f * n; }
};

Columns BuildColumns(const std::vector<Instance>& instances,
                     size_t num_features) {
  Columns out;
  out.n = instances.size();
  out.values.resize(num_features * out.n);
  for (size_t i = 0; i < out.n; ++i) {
    const auto& row = instances[i].features.values;
    YVER_CHECK(row.size() == num_features);
    for (size_t f = 0; f < num_features; ++f) {
      out.values[f * out.n + i] = row[f];
    }
  }
  return out;
}

// Candidate split conditions for one feature.
struct FeatureCandidates {
  std::vector<AdtCondition> conditions;
};

std::vector<FeatureCandidates> BuildCandidates(const Columns& columns,
                                               size_t max_numeric_thresholds,
                                               util::ThreadPool* pool) {
  const auto& schema = features::FeatureSchema::Get();
  std::vector<FeatureCandidates> out(schema.size());
  auto build = [&](size_t f) {
    const auto& def = schema.def(f);
    if (def.kind == features::FeatureKind::kNominal) {
      for (int v = 0; v < def.num_nominal_values; ++v) {
        AdtCondition c;
        c.feature = f;
        c.is_nominal = true;
        c.nominal_value = v;
        out[f].conditions.push_back(c);
      }
      return;
    }
    // Numeric: midpoints between consecutive distinct observed values,
    // thinned to at most max_numeric_thresholds quantiles.
    const double* column = columns.column(f);
    std::vector<double> values;
    for (size_t i = 0; i < columns.n; ++i) {
      if (!std::isnan(column[i])) values.push_back(column[i]);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    if (values.size() < 2) return;
    std::vector<double> midpoints;
    midpoints.reserve(values.size() - 1);
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      midpoints.push_back((values[i] + values[i + 1]) / 2.0);
    }
    size_t stride =
        std::max<size_t>(1, midpoints.size() / max_numeric_thresholds);
    for (size_t i = 0; i < midpoints.size(); i += stride) {
      AdtCondition c;
      c.feature = f;
      c.is_nominal = false;
      c.threshold = midpoints[i];
      out[f].conditions.push_back(c);
    }
  };
  ForChunks(pool, schema.size(), [&](size_t begin, size_t end) {
    for (size_t f = begin; f < end; ++f) build(f);
  });
  return out;
}

struct WeightSplit {
  double pos_true = 0.0;
  double neg_true = 0.0;
  double pos_false = 0.0;
  double neg_false = 0.0;
};

double ZValue(const WeightSplit& w, double residual) {
  return 2.0 * (std::sqrt(w.pos_true * w.neg_true) +
                std::sqrt(w.pos_false * w.neg_false)) +
         residual;
}

// A node's members with one feature present, gathered once per
// (node, feature) task and split by label. Each side keeps member order,
// so every weight sum below adds the same terms in the same order as a
// direct walk over the members would.
struct Gathered {
  std::vector<double> pos_values;
  std::vector<double> pos_weights;
  std::vector<double> neg_values;
  std::vector<double> neg_weights;
};

// The best condition one (node, feature) task found; z stays +inf when
// the task has no usable condition.
struct TaskBest {
  double z = std::numeric_limits<double>::infinity();
  const AdtCondition* condition = nullptr;
  WeightSplit split;
};

}  // namespace

AdTree TrainAdTree(const std::vector<Instance>& instances,
                   const AdTreeTrainerOptions& options,
                   util::ThreadPool* pool) {
  YVER_CHECK(!instances.empty());
  const size_t n = instances.size();
  const double s = options.smoothing;

  std::vector<double> weights(n, 1.0);

  // Prior.
  double w_pos = 0.0;
  double w_neg = 0.0;
  for (size_t i = 0; i < n; ++i) {
    (instances[i].label > 0 ? w_pos : w_neg) += weights[i];
  }
  double prior = 0.5 * std::log((w_pos + s) / (w_neg + s));
  AdTree tree(prior);
  for (size_t i = 0; i < n; ++i) {
    weights[i] *= std::exp(-instances[i].label * prior);
  }

  // reach[p] = indices of instances reaching prediction node p, ascending.
  std::vector<std::vector<size_t>> reach;
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  reach.push_back(std::move(all));

  const size_t num_features = features::FeatureSchema::Get().size();
  const Columns columns = BuildColumns(instances, num_features);
  auto candidates =
      BuildCandidates(columns, options.max_numeric_thresholds, pool);

  // Scores every condition of feature f at node p over the gathered
  // members; keeps the first strict minimum, in condition order.
  auto run_task = [&](size_t p, size_t f, double total_weight, Gathered& g) {
    TaskBest best;
    const auto& members = reach[p];
    const auto& conditions = candidates[f].conditions;
    if (members.empty() || conditions.empty()) return best;
    g.pos_values.clear();
    g.pos_weights.clear();
    g.neg_values.clear();
    g.neg_weights.clear();
    // Weight of members whose feature f is present.
    double present_weight = 0.0;
    const double* column = columns.column(f);
    for (size_t idx : members) {
      double v = column[idx];
      if (std::isnan(v)) continue;
      double w = weights[idx];
      present_weight += w;
      if (instances[idx].label > 0) {
        g.pos_values.push_back(v);
        g.pos_weights.push_back(w);
      } else {
        g.neg_values.push_back(v);
        g.neg_weights.push_back(w);
      }
    }
    if (present_weight <= 0.0) return best;
    double residual = total_weight - present_weight;
    for (const AdtCondition& cond : conditions) {
      WeightSplit split;
      for (size_t k = 0; k < g.pos_values.size(); ++k) {
        (cond.Evaluate(g.pos_values[k]) ? split.pos_true : split.pos_false) +=
            g.pos_weights[k];
      }
      for (size_t k = 0; k < g.neg_values.size(); ++k) {
        (cond.Evaluate(g.neg_values[k]) ? split.neg_true : split.neg_false) +=
            g.neg_weights[k];
      }
      double z = ZValue(split, residual);
      if (z < best.z) {
        best.z = z;
        best.condition = &cond;
        best.split = split;
      }
    }
    return best;
  };

  std::vector<TaskBest> task_best;
  for (size_t round = 1; round <= options.num_rounds; ++round) {
    double total_weight = 0.0;
    for (size_t i = 0; i < n; ++i) total_weight += weights[i];

    // One task per (prediction node, feature), each into its own slot.
    const size_t num_tasks = reach.size() * num_features;
    task_best.assign(num_tasks, TaskBest());
    ForChunks(pool, num_tasks, [&](size_t begin, size_t end) {
      Gathered g;
      for (size_t t = begin; t < end; ++t) {
        task_best[t] =
            run_task(t / num_features, t % num_features, total_weight, g);
      }
    });

    // Serial reduction in (node, feature) order with strict <: the same
    // first minimum a serial (node, feature, condition) scan would pick.
    double best_z = std::numeric_limits<double>::infinity();
    int best_prediction = -1;
    AdtCondition best_condition;
    WeightSplit best_split;
    for (size_t t = 0; t < num_tasks; ++t) {
      if (task_best[t].z < best_z) {
        best_z = task_best[t].z;
        best_prediction = static_cast<int>(t / num_features);
        best_condition = *task_best[t].condition;
        best_split = task_best[t].split;
      }
    }
    if (best_prediction < 0) break;  // no usable condition anywhere

    double a = 0.5 * std::log((best_split.pos_true + s) /
                              (best_split.neg_true + s));
    double b = 0.5 * std::log((best_split.pos_false + s) /
                              (best_split.neg_false + s));
    tree.AddSplitter(best_prediction, best_condition, a, b,
                     static_cast<int>(round));

    // Route the affected instances and update their weights; instances
    // with the feature missing stay at the parent (un-routed).
    const auto& parent_members = reach[best_prediction];
    const double* column = columns.column(best_condition.feature);
    std::vector<size_t> true_members;
    std::vector<size_t> false_members;
    for (size_t idx : parent_members) {
      double v = column[idx];
      if (std::isnan(v)) continue;
      if (best_condition.Evaluate(v)) {
        true_members.push_back(idx);
        weights[idx] *= std::exp(-instances[idx].label * a);
      } else {
        false_members.push_back(idx);
        weights[idx] *= std::exp(-instances[idx].label * b);
      }
    }
    reach.push_back(std::move(true_members));   // true prediction node
    reach.push_back(std::move(false_members));  // false prediction node
  }
  return tree;
}

ExpertTag ThreeClassAdt::Predict(const features::FeatureVector& fv) const {
  if (maybe_tree.Score(fv) > 0.0) return ExpertTag::kMaybe;
  return match_tree.Classify(fv) ? ExpertTag::kYes : ExpertTag::kNo;
}

ThreeClassAdt TrainThreeClass(const std::vector<Instance>& instances,
                              const AdTreeTrainerOptions& options,
                              util::ThreadPool* pool) {
  // Binary match tree: Yes/ProbablyYes vs rest.
  std::vector<Instance> match_instances = instances;
  for (auto& inst : match_instances) {
    inst.label = (inst.tag == ExpertTag::kYes ||
                  inst.tag == ExpertTag::kProbablyYes)
                     ? +1
                     : -1;
  }
  // Maybe detector: Maybe vs rest.
  std::vector<Instance> maybe_instances = instances;
  for (auto& inst : maybe_instances) {
    inst.label = inst.tag == ExpertTag::kMaybe ? +1 : -1;
  }
  ThreeClassAdt model;
  model.match_tree = TrainAdTree(match_instances, options, pool);
  model.maybe_tree = TrainAdTree(maybe_instances, options, pool);
  return model;
}

}  // namespace yver::ml
