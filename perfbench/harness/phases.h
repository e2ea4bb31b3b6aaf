// The three phases of one benchmark round — batch resolve, static
// served queries, durable live ingest — each timed end to end and, when
// the tracer is on, per layer. Every workload runs all three; the
// workloads differ in how much of the run each phase gets (main.cc).
#ifndef YVER_PERFBENCH_PHASES_H_
#define YVER_PERFBENCH_PHASES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "ml/adtree.h"
#include "serve/ingest.h"
#include "serve/net/server.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "serve/wal.h"

namespace perfbench {

/// Thread counts are pinned, never "0 = hardware", and reported.
inline constexpr size_t kPipelineThreads = 4;
inline constexpr size_t kServiceThreads = 2;
inline constexpr size_t kDispatchThreads = 1;
inline constexpr size_t kConnections = 4;

/// Outcome of one run; `correct` turns false on the first failed check.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  MetricSet end_to_end;
  MetricSet per_layer;
  Json report;  // settings, per-phase counts, sample counts

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// ---------------------------------------------------------------- resolve

/// A generated corpus: `base` is what gets resolved and served; `appends`
/// is a held-out slice of the same generated reports, appended live, so
/// appends have true duplicates to find.
struct Corpus {
  yver::data::Dataset base;
  std::vector<yver::data::Record> appends;
  uint64_t generator_seed = 0;
  uint64_t oracle_seed = 0;
};

/// synth::RandomSetConfig(scale) reseeded from `seed`, minus `holdout`
/// reports chosen by the same seed.
Corpus MakeCorpus(double scale, size_t holdout, uint64_t seed);

struct ResolveResult {
  double resolve_s = 0;  // encode + Run + freeze into a ResolutionIndex
  std::shared_ptr<const yver::serve::ResolutionIndex> index;
  yver::ml::AdTree model;
  uint64_t checksum = 0;
  double f1 = 0;
  double pair_completeness = 0;
  double pair_quality = 0;
  yver::blocking::BlockingTimings blocking_timings;  // from MfiBlocksResult
  size_t mfis = 0, blocks = 0, blocks_considered = 0, candidates = 0;
  size_t feature_pairs = 0, train_instances = 0, matches = 0;
};

/// UncertainErPipeline construction + Run + ResolutionIndex, under
/// core::RecommendedConfig with `threads` pipeline threads. With an
/// enabled tracer it instead calls the public stages Run is made of, one
/// span each, under a root "resolve" span; the result must be the same.
ResolveResult Resolve(const yver::data::Dataset& dataset, size_t threads,
                      uint64_t oracle_seed, Tracer* tracer);

// ------------------------------------------------------------------ serve

/// Files the served stack starts from, written once per run: the corpus
/// CSV, the index artifact, and the trained model.
struct Artifacts {
  std::string corpus_csv, index_yvx, model_adt;
};
bool WriteArtifacts(const yver::data::Dataset& base, const ResolveResult& r,
                    const std::string& dir, Artifacts* out);

/// A durable live server as `yver_cli serve --live --wal-dir` runs it:
/// corpus + index + model loaded from disk, an IncrementalResolver behind
/// a LiveIndexBuilder writing through a WriteAheadLog, and the TCP front
/// end on a loopback ephemeral port.
struct Stack {
  yver::data::Dataset corpus;
  std::shared_ptr<const yver::serve::ResolutionIndex> index;
  yver::ml::AdTree model;
  std::string wal_dir;
  std::unique_ptr<yver::serve::WriteAheadLog> wal;
  std::shared_ptr<yver::serve::ResolutionService> service;
  std::shared_ptr<yver::serve::LiveIndexBuilder> live;
  std::unique_ptr<yver::serve::net::Server> server;

  /// Stops the front end, then live ingest (draining its queue).
  void Shutdown();
  ~Stack() { Shutdown(); }
};

/// Brings a Stack up from `artifacts`; false (with `*why`) on failure.
bool StartStack(const Artifacts& artifacts, const std::string& wal_dir,
                Stack* stack, std::string* why);

/// How the served phases are shaped; durations in seconds.
struct ServeShape {
  double nominal_qps = 5000;
  double nominal_s = 4;
  double ladder_step_s = 0.3;
  size_t ladder_steps = 8;
  double ladder_growth = 2.0;
  double limit_ms = 2.0;  // backlog limit on a ladder step's tail median
  size_t saturation_runs = 3;
  size_t saturation_window = 64;      // outstanding per connection
  double saturation_queries = 120000;  // per saturation run
  double ingest_s = 6;
  double append_rate = 100;
  double ingest_query_qps = 1000;
  double probe_interval_ms = 0.5;
};

/// Static visitor reads at the nominal rate against `stack`'s first
/// generation; every wire answer is checked against the in-process
/// ResolutionService answer. Returns the latencies (ms, from due).
Samples RunNominalPhase(Stack& stack, const ServeShape& shape, uint64_t seed,
                        Tracer* tracer, bool measure_overhead,
                        const std::string& label, Outcome* out);

/// The rate ladder above the nominal rate up to saturation, against
/// whatever generation is served: sets query_max_qps.
void RunLadderPhase(Stack& stack, const ServeShape& shape, uint64_t seed,
                    Outcome* out);

/// What the ingest phase acked, for VerifyIngest.
struct IngestResult {
  std::vector<yver::data::Record> acked;  // in ack (= WAL) order
  uint64_t served_checksum = 0;           // after quiesce
  Samples ack_ms, visible_ms;             // per append, from due
  Samples query_ms;                       // reads beside the appends
  /// Live ingest did not publish everything in time (e.g. a publish
  /// waiting forever for a free snapshot slot); the stack cannot be
  /// stopped cleanly.
  bool stalled = false;
};

/// Durable appends at a fixed rate beside query traffic that probes for
/// just-acked records, then quiesce. Checks that every acked append
/// became visible.
IngestResult RunIngestPhase(Stack& stack,
                            const std::vector<yver::data::Record>& appends,
                            const ServeShape& shape, uint64_t seed,
                            Tracer* tracer, const std::string& label,
                            Outcome* out);

/// Stops `stack`, then checks that its WAL holds exactly the acked
/// appends and that the served index equals a serial replay of the seed
/// corpus plus those appends in WAL order. Traced, it also drives the
/// same appends through the live path's calls one span each (WALs under
/// `work_dir`).
void VerifyIngest(Stack& stack, const IngestResult& ingest,
                  const std::string& work_dir, Tracer* tracer,
                  bool measure_overhead, Outcome* out);

}  // namespace perfbench

#endif  // YVER_PERFBENCH_PHASES_H_
