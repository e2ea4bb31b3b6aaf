#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "core/config.h"
#include "core/evaluation.h"
#include "ml/adtree_trainer.h"
#include "ml/instances.h"
#include "phases.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "synth/tag_oracle.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace core = yver::core;
namespace data = yver::data;
namespace ml = yver::ml;

Corpus MakeCorpus(double scale, size_t holdout, uint64_t seed) {
  yver::util::Rng seeds(seed);
  Corpus corpus;
  corpus.generator_seed = seeds.Next();
  corpus.oracle_seed = seeds.Next();
  yver::synth::GeneratorConfig config = yver::synth::RandomSetConfig(scale);
  config.seed = corpus.generator_seed;
  yver::synth::GeneratedData generated = yver::synth::Generate(config);
  const data::Dataset& all = generated.dataset;

  std::vector<size_t> order(all.size());
  std::iota(order.begin(), order.end(), 0);
  yver::util::Rng pick(seeds.Next());
  holdout = std::min(holdout, all.size() / 2);
  for (size_t i = 0; i < holdout; ++i) {  // partial Fisher-Yates
    size_t j = static_cast<size_t>(
        pick.UniformInt(static_cast<int64_t>(i),
                        static_cast<int64_t>(all.size() - 1)));
    std::swap(order[i], order[j]);
  }
  std::vector<bool> held(all.size(), false);
  for (size_t i = 0; i < holdout; ++i) {
    held[order[i]] = true;
    corpus.appends.push_back(all[static_cast<data::RecordIdx>(order[i])]);
  }
  for (size_t i = 0; i < all.size(); ++i) {
    if (!held[i]) corpus.base.Add(all[static_cast<data::RecordIdx>(i)]);
  }
  return corpus;
}

namespace {

std::vector<data::RecordPair> PairsOf(
    const std::vector<yver::blocking::CandidatePair>& candidates) {
  std::vector<data::RecordPair> pairs;
  pairs.reserve(candidates.size());
  for (const auto& cp : candidates) pairs.push_back(cp.pair);
  return pairs;
}

void Summarize(const data::Dataset& dataset,
               const yver::blocking::MfiBlocksResult& blocking,
               const std::vector<yver::blocking::CandidatePair>& candidates,
               size_t train_instances, ResolveResult* r) {
  r->checksum = r->index->Checksum();
  r->f1 = core::EvaluateMatches(dataset, r->index->matches()).F1();
  core::PairQuality pq = core::EvaluatePairs(dataset, candidates);
  r->pair_completeness = pq.Recall();
  r->pair_quality = pq.Precision();
  r->mfis = blocking.num_mfis_mined;
  r->blocks = blocking.blocks.size();
  r->blocks_considered = blocking.num_blocks_considered;
  r->candidates = candidates.size();
  r->feature_pairs = 2 * candidates.size();  // tagged, then scored
  r->train_instances = train_instances;
  r->matches = r->index->num_matches();
}

/// What the staged resolve produces besides the index.
struct Staged {
  yver::blocking::MfiBlocksResult blocking;
  std::vector<yver::blocking::CandidatePair> candidates;
  size_t train_instances = 0;
  ml::AdTree model;
  std::shared_ptr<const yver::serve::ResolutionIndex> index;
};

/// The public stages UncertainErPipeline::Run is made of, in its order,
/// each call into a layer under its own span, all under a root "resolve"
/// span. Must produce exactly what Run produces.
Staged RunStaged(const data::Dataset& dataset, data::GeoResolver geo,
                 const core::PipelineConfig& config,
                 const core::PairTagger& tagger, size_t threads,
                 Tracer* tracer) {
  Staged s;
  ScopedSpan root(tracer, "resolve");
  const uint64_t parent = root.id();
  std::unique_ptr<core::UncertainErPipeline> pipeline;
  {
    ScopedSpan span(tracer, "data.encode", parent);
    pipeline =
        std::make_unique<core::UncertainErPipeline>(dataset, std::move(geo));
  }
  std::unique_ptr<yver::util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<yver::util::ThreadPool>(threads);
  {
    ScopedSpan span(tracer, "blocking.total", parent);
    s.blocking = pipeline->RunBlocking(config.blocking, pool.get());
    s.candidates = config.discard_same_source
                       ? pipeline->DiscardSameSource(s.blocking.pairs)
                       : s.blocking.pairs;
  }
  std::vector<data::RecordPair> pairs;
  std::vector<yver::features::FeatureVector> features;
  {
    ScopedSpan span(tracer, "features.extract", parent);
    pairs = PairsOf(s.candidates);
    features = pipeline->extractor().ExtractBatch(pairs, pool.get());
  }
  std::vector<ml::Instance> instances;
  {
    ScopedSpan span(tracer, "ml.tag", parent);
    instances.reserve(s.candidates.size());
    for (size_t i = 0; i < s.candidates.size(); ++i) {
      ml::Instance inst;
      inst.pair = s.candidates[i].pair;
      inst.features = std::move(features[i]);
      inst.tag = tagger(inst.pair.a, inst.pair.b);
      instances.push_back(std::move(inst));
    }
    instances = ml::ApplyMaybePolicy(std::move(instances),
                                     ml::MaybePolicy::kOmit);
  }
  s.train_instances = instances.size();
  {
    ScopedSpan span(tracer, "ml.train", parent);
    s.model = ml::TrainAdTree(instances, config.trainer);
  }
  // Same fixed-size score blocks as Run, so the working set matches.
  constexpr size_t kScoreBlock = 1 << 16;
  std::vector<core::RankedMatch> matches;
  for (size_t begin = 0; begin < pairs.size(); begin += kScoreBlock) {
    size_t end = std::min(pairs.size(), begin + kScoreBlock);
    std::vector<yver::features::FeatureVector> block;
    {
      ScopedSpan span(tracer, "features.extract", parent);
      block = pipeline->extractor().ExtractBatch(
          std::span<const data::RecordPair>(pairs).subspan(begin,
                                                           end - begin),
          pool.get());
    }
    std::vector<double> scores;
    {
      ScopedSpan span(tracer, "ml.score", parent);
      scores = s.model.ScoreBatch(block, pool.get());
    }
    ScopedSpan span(tracer, "core.merge", parent);
    for (size_t i = begin; i < end; ++i) {
      if (scores[i - begin] <= 0.0) continue;  // the Cls filter
      matches.push_back(core::RankedMatch{s.candidates[i].pair,
                                          scores[i - begin],
                                          s.candidates[i].block_score});
    }
  }
  core::RankedResolution resolution;
  {
    ScopedSpan span(tracer, "core.merge", parent);
    resolution = core::RankedResolution(std::move(matches));
  }
  {
    ScopedSpan span(tracer, "serve.index_build", parent);
    s.index = std::make_shared<const yver::serve::ResolutionIndex>(
        resolution, dataset.size());
  }
  return s;
}

}  // namespace

ResolveResult Resolve(const data::Dataset& dataset, size_t threads,
                      uint64_t oracle_seed, Tracer* tracer) {
  yver::synth::Gazetteer gazetteer;
  yver::synth::TagOracleConfig oracle_config;
  oracle_config.seed = oracle_seed;
  yver::synth::TagOracle oracle(&dataset, oracle_config);
  core::PairTagger tagger = [&oracle](data::RecordIdx a, data::RecordIdx b) {
    return oracle.Tag(a, b);
  };
  core::PipelineConfig config = core::RecommendedConfig();
  config.num_threads = threads;
  ResolveResult r;

  if (tracer == nullptr || !tracer->enabled()) {
    int64_t start = NowNs();
    core::UncertainErPipeline pipeline(dataset, gazetteer.MakeGeoResolver());
    core::PipelineResult result = pipeline.Run(config, tagger);
    r.index = std::make_shared<const yver::serve::ResolutionIndex>(
        result.resolution, result.num_records);
    r.resolve_s = static_cast<double>(NowNs() - start) * 1e-9;
    r.model = std::move(result.model);
    r.blocking_timings = result.blocking.timings;
    Summarize(dataset, result.blocking, result.candidates,
              result.training_instances.size(), &r);
    return r;
  }

  int64_t start = NowNs();
  Staged staged = RunStaged(dataset, gazetteer.MakeGeoResolver(), config,
                            tagger, threads, tracer);
  r.resolve_s = static_cast<double>(NowNs() - start) * 1e-9;
  r.index = std::move(staged.index);
  r.model = std::move(staged.model);
  r.blocking_timings = staged.blocking.timings;
  Summarize(dataset, staged.blocking, staged.candidates,
            staged.train_instances, &r);
  return r;
}

}  // namespace perfbench
