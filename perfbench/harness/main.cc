// yver_perfbench: one run of the end-to-end benchmark (perfbench/README.md).
//
//   yver_perfbench --workload resolve|query|ingest --seed N --seconds S
//                  --trace 0|1 --dir RUN_DIR
//
// A run is a few rounds on inputs generated from the seed; each round is
// one pass through the archive's work: a batch resolve of a synthetic corpus, visitor reads over
// loopback TCP against the frozen index, and durable live appends beside
// reads. Every workload runs every phase, so every end-to-end metric is
// measured on each; the workloads differ in where the time goes (see
// ShapeFor). The last line of stdout is one JSON object: correct,
// attempted, failed, metrics (the end-to-end metrics with --trace 0, the
// per-layer ones with --trace 1) and a report with settings, per-phase
// counts and sample counts.
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "phases.h"
#include "util/rng.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--dir") {
      a->dir = value;
    } else {
      return false;
    }
  }
  return (a->workload == "resolve" || a->workload == "query" ||
          a->workload == "ingest") &&
         have_seed && a->seconds > 0 && !a->dir.empty();
}

/// How one workload spends its run.
struct Shape {
  double corpus_scale = 0.15;  // synth::RandomSetConfig scale (~14K reports)
  size_t rounds = 4;  // rounds per untraced run, each on its own corpus
  bool reference_check = false;  // compare with a 1-thread resolve
  ServeShape serve;
};

// Why these shapes: `resolve` spends the run in the batch pipeline
// (mining, support recount and serial ADTree training) plus a 1-thread
// reference resolve, with short served phases. `query` spends it on
// static visitor reads, where the result cache hits and the epoll ->
// dispatcher -> service-pool hops carry the load. `ingest` spends it on
// durable appends beside reads, where every publish bumps the generation
// so the result cache rarely hits and the WAL fsync,
// IncrementalResolver::AddRecord and the snapshot rebuild do the work.
// The served corpora are ~14K reports: on ~24K, reads beside 100
// appends/s collapsed (every publish makes entity queries recompute
// ClustersAt), which would measure the collapse instead of the layers.
Shape ShapeFor(const std::string& workload, double seconds) {
  Shape s;
  double nominal = 0, ingest = 0;  // shares of `seconds`
  if (workload == "resolve") {
    s.reference_check = true;
    nominal = 0.2, ingest = 0.3;
  } else if (workload == "query") {
    nominal = 0.55, ingest = 0.3;
  } else {
    nominal = 0.2, ingest = 0.65;
  }
  s.serve.nominal_s = nominal * seconds / s.rounds;
  s.serve.ingest_s = ingest * seconds / s.rounds;
  return s;
}

/// Seed of one input stream of a run, distinct per (seed, stream, round).
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t round) {
  yver::util::Rng rng(seed ^ (stream << 56) ^ (round << 48));
  return rng.Next();
}

bool MakeDir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

void ResolveLayerMetrics(const ResolveResult& r,
                         const std::vector<Span>& spans, Outcome* out) {
  MetricSet& m = out->per_layer;
  auto totals = SummarizeSpans(spans);
  auto total = [&](const char* name) { return totals[name].total_s; };
  m.Set("data.encode_s", total("data.encode"), "s");
  m.Set("blocking.total_s", total("blocking.total"), "s");
  const auto& b = r.blocking_timings;
  m.Set("mining.mine_s", b.mine_seconds, "s");
  m.Set("blocking.support_s", b.support_seconds, "s");
  m.Set("blocking.score_s", b.score_seconds, "s");
  m.Set("blocking.threshold_s", b.threshold_seconds, "s");
  m.Set("blocking.emit_s", b.emit_seconds, "s");
  m.Set("features.extract_s", total("features.extract"), "s");
  m.Set("ml.tag_s", total("ml.tag"), "s");
  m.Set("ml.train_s", total("ml.train"), "s");
  m.Set("ml.score_s", total("ml.score"), "s");
  m.Set("core.merge_s", total("core.merge"), "s");
  m.Set("serve.index_build_s", total("serve.index_build"), "s");
  m.Set("mining.mfis", static_cast<double>(r.mfis), "count");
  m.Set("blocking.blocks", static_cast<double>(r.blocks), "count");
  m.Set("blocking.blocks_considered",
        static_cast<double>(r.blocks_considered), "count");
  m.Set("blocking.candidate_pairs", static_cast<double>(r.candidates),
        "count");
  m.Set("features.pairs", static_cast<double>(r.feature_pairs), "count");
  m.Set("ml.train_instances", static_cast<double>(r.train_instances),
        "count");
  m.Set("core.matches", static_cast<double>(r.matches), "count");
  m.Set("blocking.pair_completeness", r.pair_completeness, "ratio");
  m.Set("blocking.pair_quality", r.pair_quality, "ratio");
  const SpanTotals& root = totals["resolve"];
  double coverage = root.total_s > 0 ? 1.0 - root.self_s / root.total_s : 0;
  m.Set("bench.stage_coverage", coverage, "ratio");
  if (coverage < 0.95) {
    out->Fail("resolve: stage spans cover only " +
              std::to_string(coverage * 100) + "% of the traced resolve");
  }
}

void IngestLayerMetrics(const std::vector<Span>& spans, Outcome* out) {
  MetricSet& m = out->per_layer;
  Samples wal = SpanDurations(spans, "serve.wal_append", 1e-6);
  Samples add = SpanDurations(spans, "core.add_record", 1e-6);
  Samples snapshot = SpanDurations(spans, "serve.snapshot", 1e-6);
  Samples publish = SpanDurations(spans, "serve.publish", 1e-3);
  m.Set("serve.wal_append_ms_p50", wal.Median(), "ms", wal.count());
  m.Set("serve.wal_append_ms_p99", wal.Percentile(99), "ms", wal.count());
  m.Set("core.add_record_ms_p50", add.Median(), "ms", add.count());
  m.Set("core.add_record_ms_p99", add.Percentile(99), "ms", add.count());
  m.Set("serve.snapshot_ms", snapshot.Median(), "ms", snapshot.count());
  m.Set("serve.publish_us", publish.Median(), "us", publish.count());
}

int Run(const Args& args) {
  const Shape shape = ShapeFor(args.workload, args.seconds);
  const bool resolve_primary = args.workload == "resolve";
  Tracer tracer(args.trace);
  Outcome out;
  if (!MakeDir(args.dir)) {
    std::fprintf(stderr, "cannot create %s\n", args.dir.c_str());
    return 2;
  }
  const size_t holdout = static_cast<size_t>(std::ceil(
                             shape.serve.append_rate * shape.serve.ingest_s)) +
                         1;
  // Per-round figures; each time and median latency is the median of its
  // per-round values, so a host hiccup that spans one round does not set
  // the run's figure.
  Samples resolve_s, f1, setup_s, query_p50, ack_p50, visible_p50;
  // Pooled over rounds for the unbounded tail figures.
  Samples query_ms, ack_ms, visible_ms, ingest_query_ms;
  uint64_t index_checksum = 0;
  size_t corpus_records = 0;
  const size_t rounds = args.trace ? 1 : shape.rounds;

  for (size_t round = 0; round < rounds; ++round) {
    const std::string label = "round" + std::to_string(round);
    const std::string dir = args.dir + "/" + label;
    if (!MakeDir(dir)) {
      std::fprintf(stderr, "cannot create %s\n", dir.c_str());
      return 2;
    }
    // Inputs: a function of the seed and the round.
    Corpus corpus = MakeCorpus(shape.corpus_scale, holdout,
                               StreamSeed(args.seed, 0, round));
    corpus_records = corpus.base.size();

    // Phase 1: batch resolve. Traced, the staged resolve is checked
    // against Run's result — on `resolve`, after one untraced Run gives
    // the overhead base.
    auto resolve_once = [&](size_t threads, Tracer* t) {
      ResolveResult r = Resolve(corpus.base, threads, corpus.oracle_seed, t);
      ++out.attempted;
      return r;
    };
    ResolveResult resolved;
    if (!args.trace || resolve_primary) {
      resolved = resolve_once(kPipelineThreads, nullptr);
      resolve_s.Add(resolved.resolve_s);
      f1.Add(resolved.f1);
    }
    if (args.trace) {
      ResolveResult traced = resolve_once(kPipelineThreads, &tracer);
      if (resolve_primary) {
        if (traced.checksum != resolved.checksum) {
          out.Fail("resolve: traced stages disagree with Run");
        }
        out.per_layer.Set("bench.trace_overhead",
                          traced.resolve_s / resolved.resolve_s - 1.0,
                          "ratio");
      }
      resolved = std::move(traced);
      ResolveLayerMetrics(resolved, tracer.Collect(), &out);
    }
    if (shape.reference_check && round == 0 &&
        resolve_once(1, nullptr).checksum != resolved.checksum) {
      out.Fail("resolve: index checksum differs from the 1-thread result");
    }
    index_checksum = resolved.checksum;

    // Set-up: bring the durable live server up from artifacts on disk.
    Artifacts artifacts;
    if (!WriteArtifacts(corpus.base, resolved, dir, &artifacts)) {
      std::fprintf(stderr, "cannot write artifacts under %s\n", dir.c_str());
      return 2;
    }
    Stack stack;
    std::string why;
    int64_t start = NowNs();
    if (!StartStack(artifacts, dir + "/wal", &stack, &why)) {
      std::fprintf(stderr, "cannot start the server: %s\n", why.c_str());
      return 2;
    }
    setup_s.Add(static_cast<double>(NowNs() - start) * 1e-9);

    // Phases 2 and 3: static reads at the nominal rate, then durable
    // ingest beside reads.
    Samples reads = RunNominalPhase(stack, shape.serve,
                                    StreamSeed(args.seed, 1, round), &tracer,
                                    args.trace && args.workload == "query",
                                    label, &out);
    query_p50.Add(reads.Median());
    query_ms.Append(reads);
    IngestResult ingest =
        RunIngestPhase(stack, corpus.appends, shape.serve,
                       StreamSeed(args.seed, 2, round), &tracer, label, &out);
    ack_p50.Add(ingest.ack_ms.Median());
    visible_p50.Add(ingest.visible_ms.Median());
    ack_ms.Append(ingest.ack_ms);
    visible_ms.Append(ingest.visible_ms);
    ingest_query_ms.Append(ingest.query_ms);
    if (ingest.stalled) {
      // A stalled ingest thread cannot be joined: report and leave
      // without unwinding.
      std::printf("%s\n",
                  Json().Bool("correct", false)
                      .Int("attempted", out.attempted)
                      .Int("failed", out.failed)
                      .Obj("metrics", Json())
                      .Obj("report", out.report)
                      .Dump()
                      .c_str());
      std::fflush(stdout);
      std::_Exit(1);
    }
    if (round + 1 == rounds) {
      out.end_to_end.Set("peak_rss_mb", PeakRssMb(), "MB");
      // The rate ladder feeds only per-layer figures, so it runs in the
      // traced run, after peak_rss_mb is read.
      if (args.trace) {
        RunLadderPhase(stack, shape.serve, StreamSeed(args.seed, 3, 0),
                       &out);
      }
    }
    VerifyIngest(stack, ingest, dir, &tracer,
                 args.trace && args.workload == "ingest", &out);
  }

  out.end_to_end.Set("setup_s", setup_s.Median(), "s", setup_s.count());
  out.end_to_end.Set("resolve_s", resolve_s.Median(), "s", resolve_s.count());
  out.end_to_end.Set("match_f1", f1.Mean(), "ratio", f1.count());
  // The served latencies are per-layer figures: on the host this was built
  // on, whole runs went 2-5x slower in them with unchanged code, so no
  // regression bound of at most 25% could hold (perfbench/README.md).
  out.per_layer.Set("query_p50_ms", query_p50.Median(), "ms",
                    query_ms.count());
  out.per_layer.Set("append_ack_p50_ms", ack_p50.Median(), "ms",
                    ack_ms.count());
  out.per_layer.Set("append_visible_p50_ms", visible_p50.Median(), "ms",
                    visible_ms.count());
  out.end_to_end.Set(
      "ok_ratio",
      out.attempted == 0
          ? 0.0
          : static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
      "ratio", out.attempted);
  out.per_layer.Set("query_p99_ms", query_ms.Percentile(99), "ms",
                    query_ms.count());
  out.per_layer.Set("append_ack_p99_ms", ack_ms.Percentile(99), "ms",
                    ack_ms.count());
  out.per_layer.Set("append_visible_p99_ms", visible_ms.Percentile(99), "ms",
                    visible_ms.count());
  out.per_layer.Set("serve.ingest_query_p50_ms", ingest_query_ms.Median(),
                    "ms", ingest_query_ms.count());
  out.per_layer.Set("serve.ingest_query_p99_ms",
                    ingest_query_ms.Percentile(99), "ms",
                    ingest_query_ms.count());
  if (args.trace) {
    IngestLayerMetrics(tracer.Collect(), &out);
    if (!tracer.WriteJsonLines(args.dir + "/trace.jsonl")) {
      out.Fail("cannot write " + args.dir + "/trace.jsonl");
    }
  }

  Json settings;
  settings.Str("workload", args.workload)
      .Int("seed", args.seed)
      .Num("seconds", args.seconds)
      .Int("rounds", rounds)
      .Int("pipeline_threads", kPipelineThreads)
      .Int("service_threads", kServiceThreads)
      .Int("dispatch_threads", kDispatchThreads)
      .Int("query_connections", kConnections)
      .Str("fsync_policy", "fsync per WAL group commit, publish_batch 1")
      .Num("corpus_scale", shape.corpus_scale)
      .Int("corpus_records", corpus_records)
      .Int("heldout_appends", holdout)
      .Num("nominal_qps", shape.serve.nominal_qps)
      .Num("nominal_s", shape.serve.nominal_s)
      .Num("ingest_s", shape.serve.ingest_s)
      .Num("append_rate", shape.serve.append_rate)
      .Num("ingest_query_qps", shape.serve.ingest_query_qps)
      .Num("ladder_step_s", shape.serve.ladder_step_s)
      .Num("ladder_growth", shape.serve.ladder_growth)
      .Num("ladder_limit_ms", shape.serve.limit_ms);
  Json problems;
  for (size_t i = 0; i < out.problems.size(); ++i) {
    problems.Str(std::to_string(i), out.problems[i]);
  }
  out.report.Obj("settings", settings)
      .Obj("samples", args.trace ? out.per_layer.SampleCounts()
                                 : out.end_to_end.SampleCounts())
      .Int("index_checksum", index_checksum)
      .Obj("problems", problems);
  Json result;
  result.Bool("correct", out.correct)
      .Int("attempted", out.attempted)
      .Int("failed", out.failed)
      .Obj("metrics",
           args.trace ? out.per_layer.Values() : out.end_to_end.Values())
      .Obj("report", out.report);
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: yver_perfbench --workload resolve|query|ingest "
                 "--seed N --seconds S --trace 0|1 --dir RUN_DIR\n");
    return 2;
  }
  return perfbench::Run(args);
}
