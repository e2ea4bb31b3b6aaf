#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "core/ranked_resolution.h"
#include "data/csv_io.h"
#include "ml/adtree_io.h"
#include "open_loop.h"
#include "phases.h"
#include "serve/net/client.h"
#include "serve/wire.h"
#include "synth/gazetteer.h"
#include "util/rng.h"

namespace perfbench {

namespace core = yver::core;
namespace data = yver::data;
namespace serve = yver::serve;
namespace wire = yver::serve::wire;
using yver::util::StatusCode;

namespace {

/// Latency charged to a failed or refused request: it misses any limit.
constexpr double kMissedMs = 1e9;
/// The certainty slider a visitor picks from (ADTree confidences of the
/// served matches span roughly 0..5).
constexpr double kSliders[] = {0.0, 1.0, 2.0, 3.0, 4.0};
constexpr size_t kNumSliders = sizeof(kSliders) / sizeof(kSliders[0]);

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Visitor traffic over a corpus: Zipf(1) record popularity (over a seeded
/// permutation, so popular records are spread over the corpus), a
/// certainty from the slider set, ~10% entity-granularity queries and
/// ~20% top-5 requests.
class QueryMix {
 public:
  QueryMix(size_t num_records, uint64_t seed)
      : zipf_(num_records, 1.0), perm_(num_records) {
    yver::util::Rng rng(seed);
    for (size_t i = 0; i < num_records; ++i) {
      perm_[i] = static_cast<data::RecordIdx>(i);
    }
    for (size_t i = num_records; i > 1; --i) {
      size_t j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(i - 1)));
      std::swap(perm_[i - 1], perm_[j]);
    }
  }

  serve::Query Next(yver::util::Rng& rng) const {
    serve::Query q;
    q.record = perm_[zipf_.Sample(rng)];
    q.certainty = kSliders[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kNumSliders - 1)))];
    if (rng.Bernoulli(0.1)) q.granularity = serve::Granularity::kEntity;
    if (rng.Bernoulli(0.2)) q.k = 5;
    return q;
  }

 private:
  yver::util::ZipfSampler zipf_;
  std::vector<data::RecordIdx> perm_;
};

/// Poisson arrivals at `qps` over [0, seconds), spread round-robin over
/// connections [first_conn, first_conn + conns).
void AddQueries(const QueryMix& mix, yver::util::Rng& rng, double qps,
                double seconds, uint32_t first_conn, uint32_t conns,
                LoadPlan* plan) {
  double t = 0;
  uint32_t next = 0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / qps;
    if (t >= seconds) break;
    Op op;
    op.due_ns = static_cast<int64_t>(t * 1e9);
    op.conn = first_conn + (next++ % conns);
    op.kind = OpKind::kQuery;
    op.payload = static_cast<uint32_t>(plan->queries.size());
    plan->queries.push_back(mix.Next(rng));
    plan->ops.push_back(op);
  }
}

void SortOps(LoadPlan* plan) {
  std::stable_sort(plan->ops.begin(), plan->ops.end(),
                   [](const Op& a, const Op& b) { return a.due_ns < b.due_ns; });
}

/// Latency (from due), lateness (send - due) and RTT (answer - send) of
/// the ops of one kind in a finished run.
struct OpStats {
  uint64_t sent = 0, ok = 0, failed = 0;
  Samples latency_ms, lateness_ms, rtt_us;
  /// Median latency of the last tenth of the ops by due time: a backlog
  /// that grows through the phase shows here.
  double tail_p50_ms = 0;
  /// Answers completed OK per second, from the run's start to its last
  /// answer.
  double goodput_per_s = 0;
};

OpStats Analyze(const LoadPlan& plan, const LoadRun& run, OpKind kind,
                bool out_of_range_ok = false) {
  OpStats s;
  Samples tail;
  size_t total = 0;
  for (const Op& op : plan.ops) total += op.kind == kind;
  size_t seen = 0;
  int64_t last_done = run.start_ns;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    if (op.kind != kind) continue;
    ++seen;
    const OpResult& r = run.results[i];
    if (r.status == kNotSent) continue;
    ++s.sent;
    const int64_t due = run.start_ns + op.due_ns;
    s.lateness_ms.Add(Ms(r.sent_ns - due));
    bool ok = r.status == 0 ||
              (out_of_range_ok &&
               r.status == static_cast<int32_t>(StatusCode::kOutOfRange));
    double latency = kMissedMs;
    if (ok) {
      ++s.ok;
      last_done = std::max(last_done, r.done_ns);
      latency = Ms(r.done_ns - due);
      s.rtt_us.Add(static_cast<double>(r.done_ns - r.sent_ns) * 1e-3);
    } else {
      ++s.failed;
    }
    s.latency_ms.Add(latency);
    if (seen * 10 > total * 9) tail.Add(latency);
  }
  s.tail_p50_ms = tail.Median();
  if (last_done > run.start_ns) {
    s.goodput_per_s =
        static_cast<double>(s.ok) / ((last_done - run.start_ns) * 1e-9);
  }
  return s;
}

Json PhaseReport(const OpStats& s, double rate) {
  return Json()
      .Num("rate_per_s", rate)
      .Int("sent", s.sent)
      .Int("succeeded", s.ok)
      .Int("failed", s.failed)
      .Num("p50_ms", s.latency_ms.Median())
      .Num("p90_ms", s.latency_ms.Percentile(90))
      .Num("p95_ms", s.latency_ms.Percentile(95))
      .Num("p99_ms", s.latency_ms.Percentile(99))
      .Int("samples", s.latency_ms.count())
      .Num("lateness_p99_ms", s.lateness_ms.Percentile(99))
      .Num("tail_p50_ms", s.tail_p50_ms)
      .Num("goodput_per_s", s.goodput_per_s);
}

/// Expected response frames, computed in process by a separate
/// ResolutionService over the same index and keyed by the query's wire
/// bytes (deadline 0), so every wire answer can be compared with what
/// QueryRecord returns for the same query.
class Oracle {
 public:
  /// `generation` is the generation the served stack answers from; the
  /// in-process answers are stamped with it before encoding.
  Oracle(std::shared_ptr<const serve::ResolutionIndex> index,
         uint64_t generation)
      : generation_(generation) {
    serve::ServiceOptions options;
    options.num_threads = 1;
    service_ = std::make_unique<serve::ResolutionService>(std::move(index),
                                                          options);
  }
  uint64_t ExpectedHash(const serve::Query& q) {
    std::string key;
    wire::EncodeQuery(q, 0.0, &key);
    auto it = hashes_.find(key);
    if (it != hashes_.end()) return it->second;
    std::string frame;
    auto answer = service_->QueryRecord(q);
    if (answer.ok()) answer->generation = generation_;
    wire::EncodeResult(answer, &frame);
    uint64_t h = Fnv1a(frame.data(), frame.size());
    hashes_.emplace(std::move(key), h);
    return h;
  }

 private:
  uint64_t generation_;
  std::unique_ptr<serve::ResolutionService> service_;
  std::unordered_map<std::string, uint64_t> hashes_;
};

/// Counts answers that differ from the in-process answer.
uint64_t CountMismatches(const LoadPlan& plan, const LoadRun& run,
                         Oracle* oracle) {
  uint64_t mismatches = 0;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    if (op.kind != OpKind::kQuery || run.results[i].status != 0) continue;
    if (run.results[i].frame_hash !=
        oracle->ExpectedHash(plan.queries[op.payload])) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// In-process timing of the layers a served query crosses, on the same
/// query stream: ResolutionService::QueryRecord (fresh service, so its
/// cache warms exactly as the served one did), ResolutionIndex::ForRecord
/// and ClustersAt, and the wire codec calls for query and result.
void TimeServeLayers(const std::shared_ptr<const serve::ResolutionIndex>& index,
                     const std::vector<serve::Query>& queries, Tracer* tracer,
                     MetricSet* per_layer) {
  serve::ServiceOptions options;
  options.num_threads = kServiceThreads;
  serve::ResolutionService service(index, options);
  Samples query_us, matches_us, codec_us, clusters_ms;
  std::string frame;
  for (size_t i = 0; i < queries.size(); ++i) {
    const serve::Query& q = queries[i];
    ScopedSpan root(tracer, "serve.inprocess", 0, i + 1);
    int64_t t0 = NowNs();
    auto answer = [&] {
      ScopedSpan span(tracer, "serve.query", root.id(), i + 1);
      return service.QueryRecord(q);
    }();
    int64_t t1 = NowNs();
    query_us.Add(static_cast<double>(t1 - t0) * 1e-3);
    if (q.granularity == serve::Granularity::kMatches) {
      int64_t m0 = NowNs();
      {
        ScopedSpan span(tracer, "serve.index_matches", root.id(), i + 1);
        auto matches = index->ForRecord(q.record, q.certainty, q.k);
        (void)matches;
      }
      matches_us.Add(static_cast<double>(NowNs() - m0) * 1e-3);
    }
    int64_t c0 = NowNs();
    {
      ScopedSpan span(tracer, "serve.net.codec", root.id(), i + 1);
      frame.clear();
      wire::EncodeQuery(q, 0.0, &frame);
      wire::Frame parsed;
      if (wire::ExtractFrame(frame, &parsed).ok()) {
        (void)wire::DecodeQuery(parsed);
      }
      frame.clear();
      wire::EncodeResult(answer, &frame);
      if (wire::ExtractFrame(frame, &parsed).ok()) {
        (void)wire::DecodeResult(parsed);
      }
    }
    codec_us.Add(static_cast<double>(NowNs() - c0) * 1e-3);
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (double c : kSliders) {
      int64_t t0 = NowNs();
      ScopedSpan span(tracer, "serve.clusters");
      core::EntityClusters clusters = index->ClustersAt(c);
      (void)clusters;
      clusters_ms.Add(Ms(NowNs() - t0));
    }
  }
  per_layer->Set("serve.query_us_p50", query_us.Median(), "us",
                 query_us.count());
  per_layer->Set("serve.query_us_p99", query_us.Percentile(99), "us",
                 query_us.count());
  per_layer->Set("serve.index_matches_us", matches_us.Median(), "us",
                 matches_us.count());
  per_layer->Set("serve.clusters_ms", clusters_ms.Median(), "ms",
                 clusters_ms.count());
  per_layer->Set("serve.net.codec_us", codec_us.Median(), "us",
                 codec_us.count());
}

}  // namespace

// ----------------------------------------------------------------- stack

bool WriteArtifacts(const data::Dataset& base, const ResolveResult& r,
                    const std::string& dir, Artifacts* out) {
  out->corpus_csv = dir + "/corpus.csv";
  out->index_yvx = dir + "/index.yvx";
  out->model_adt = dir + "/model.adt";
  return data::SaveDatasetCsv(base, out->corpus_csv) &&
         r.index->Save(out->index_yvx).ok() &&
         yver::ml::SaveAdTree(r.model, out->model_adt);
}

void Stack::Shutdown() {
  if (server != nullptr) server->Shutdown();
  if (live != nullptr) live->Stop();
}

bool StartStack(const Artifacts& artifacts, const std::string& wal_dir,
                Stack* stack, std::string* why) {
  auto corpus = data::LoadDatasetCsv(artifacts.corpus_csv);
  if (!corpus) {
    *why = "cannot load " + artifacts.corpus_csv;
    return false;
  }
  stack->corpus = *std::move(corpus);
  auto index = serve::ResolutionIndex::Load(artifacts.index_yvx);
  if (!index.ok()) {
    *why = index.status().ToString();
    return false;
  }
  stack->index =
      std::make_shared<const serve::ResolutionIndex>(*std::move(index));
  auto model = yver::ml::LoadAdTree(artifacts.model_adt);
  if (!model) {
    *why = "cannot load " + artifacts.model_adt;
    return false;
  }
  stack->model = *std::move(model);
  auto resolver = std::make_unique<core::IncrementalResolver>(
      stack->corpus, core::RankedResolution(stack->index->matches()),
      stack->model, yver::synth::Gazetteer::MakeOwnedGeoResolver());

  stack->wal_dir = wal_dir;
  std::vector<serve::WalRecoveredRecord> recovered;
  auto wal = serve::WriteAheadLog::Open(wal_dir, serve::WalOptions{},
                                        &recovered);
  if (!wal.ok() || !recovered.empty()) {
    *why = wal.ok() ? "wal dir not empty" : wal.status().ToString();
    return false;
  }
  stack->wal = std::move(wal).value();

  serve::ServiceOptions service_options;
  service_options.num_threads = kServiceThreads;
  stack->service = std::make_shared<serve::ResolutionService>(
      stack->index, service_options);
  // The CLI's `serve --live --wal-dir` defaults: a publish per record, a
  // crash-atomic appended-suffix snapshot every 256 records.
  serve::IngestOptions ingest;
  ingest.publish_batch = 1;
  ingest.wal = stack->wal.get();
  ingest.wal_base_records = stack->corpus.size();
  ingest.snapshot_every = 256;
  ingest.snapshot_path = wal_dir + "/snapshot-appends.csv";
  stack->live = std::make_shared<serve::LiveIndexBuilder>(
      stack->service, std::move(resolver), ingest);

  serve::net::ServerOptions server_options;
  server_options.dispatch_threads = kDispatchThreads;
  stack->server = std::make_unique<serve::net::Server>(
      stack->service, server_options, stack->live);
  auto started = stack->server->Start();
  if (!started.ok()) {
    *why = started.ToString();
    return false;
  }
  // Up means answering: one info round trip over the wire.
  auto client = serve::net::Client::Connect(stack->server->port());
  if (!client.ok()) {
    *why = client.status().ToString();
    return false;
  }
  client->set_read_timeout_ms(10000);
  auto info = client->Info();
  if (!info.ok() || info->num_records != stack->corpus.size()) {
    *why = info.ok() ? "server reports the wrong corpus size"
                     : info.status().ToString();
    return false;
  }
  return true;
}

// ----------------------------------------------------------------- query

namespace {

/// Sends a query-only plan at `qps` for `seconds` over all connections.
struct QueryLoad {
  Stack& stack;
  QueryMix mix;
  yver::util::Rng rng;
  Oracle oracle;
  Outcome* out;
  uint64_t max_paused = 0;

  LoadPlan Plan(double qps, double seconds) {
    LoadPlan plan;
    plan.connections = kConnections;
    plan.drain_timeout_ms = 5000;
    AddQueries(mix, rng, qps, seconds, 0, kConnections, &plan);
    return plan;
  }

  /// Runs `plan`, books its counts, checks every answer against the
  /// in-process QueryRecord answer.
  OpStats Run(const LoadPlan& plan, Tracer* tracer, const char* phase) {
    LoadRun run = RunOpenLoop(stack.server->port(), plan, tracer, [this] {
      max_paused =
          std::max(max_paused, stack.server->stats().paused_reads);
    });
    OpStats s = Analyze(plan, run, OpKind::kQuery);
    out->attempted += s.sent;
    out->failed += s.failed;
    if (!run.connected) out->Fail(std::string(phase) + ": cannot connect");
    uint64_t mismatches = CountMismatches(plan, run, &oracle);
    if (mismatches > 0) {
      out->Fail(std::string(phase) + ": " + std::to_string(mismatches) +
                " wire answers differ from QueryRecord");
    }
    return s;
  }
};

}  // namespace

Samples RunNominalPhase(Stack& stack, const ServeShape& shape, uint64_t seed,
                        Tracer* tracer, bool measure_overhead,
                        const std::string& label, Outcome* out) {
  yver::util::Rng seeds(seed);
  QueryLoad load{stack, QueryMix(stack.corpus.size(), seeds.Next()),
                 yver::util::Rng(seeds.Next()), Oracle(stack.index, 1), out};
  LoadPlan plan = load.Plan(shape.nominal_qps, shape.nominal_s);
  // With the overhead baseline requested, the stream first runs untraced.
  // The cache hit ratio is taken over the first pass only: the second
  // finds the cache the first one warmed.
  serve::ServiceMetrics before = stack.service->metrics();
  double untraced_p50 = 0;
  if (measure_overhead) {
    untraced_p50 =
        load.Run(plan, nullptr, "nominal-untraced").latency_ms.Median();
  }
  serve::ServiceMetrics after = stack.service->metrics();
  OpStats s = load.Run(plan, tracer, "nominal");
  if (!measure_overhead) after = stack.service->metrics();
  out->report.Obj(label + "_nominal", PhaseReport(s, shape.nominal_qps));
  out->per_layer.Set("bench.lateness_ms", s.lateness_ms.Percentile(99), "ms",
                     s.lateness_ms.count());
  uint64_t hits = after.cache_hits - before.cache_hits;
  uint64_t looked = hits + after.cache_misses - before.cache_misses;
  out->per_layer.Set("serve.cache_hit_ratio",
                     looked == 0 ? 0.0 : static_cast<double>(hits) / looked,
                     "ratio", looked);
  out->per_layer.Set("serve.net.paused_reads",
                     static_cast<double>(load.max_paused), "count");
  if (measure_overhead && untraced_p50 > 0) {
    out->per_layer.Set("bench.trace_overhead",
                       s.latency_ms.Median() / untraced_p50 - 1.0, "ratio");
  }
  if (tracer != nullptr && tracer->enabled()) {
    TimeServeLayers(stack.index, plan.queries, tracer, &out->per_layer);
    double hop = s.rtt_us.Median() -
                 out->per_layer.Value("serve.query_us_p50") -
                 out->per_layer.Value("serve.net.codec_us");
    out->per_layer.Set("serve.net.hop_us", hop, "us", s.rtt_us.count());
  }
  return s.latency_ms;
}

void RunLadderPhase(Stack& stack, const ServeShape& shape, uint64_t seed,
                    Outcome* out) {
  yver::util::Rng seeds(seed);
  serve::PinnedIndex pin = stack.service->PinIndex();
  QueryLoad load{stack, QueryMix(stack.corpus.size(), seeds.Next()),
                 yver::util::Rng(seeds.Next()),
                 Oracle(pin.index(), pin.generation()), out};
  pin.Release();
  Json steps;
  auto step = [&](double rate, double seconds, const std::string& name) {
    ::usleep(50000);  // let the previous step drain
    OpStats st = load.Run(load.Plan(rate, seconds), nullptr, "ladder");
    steps.Obj(name, PhaseReport(st, rate));
    return st;
  };
  // Open-loop climb from the nominal rate by a fixed factor. A rate is
  // kept up with when nothing fails, the median latency of its last tenth
  // stays within the limit (no backlog builds up) and, for the reported
  // within-limit rate, its p99 does too. An overloaded open loop is
  // chaotic (backlogs of hundreds of ms, goodput swinging 2x run to run),
  // so capacity is measured separately below.
  double rate = shape.nominal_qps, within_limit = 0;
  for (size_t i = 0; i < shape.ladder_steps; ++i) {
    rate *= shape.ladder_growth;
    OpStats st = step(rate, shape.ladder_step_s,
                      std::to_string(static_cast<int64_t>(rate)));
    if (st.failed > 0 || st.tail_p50_ms > shape.limit_ms) break;
    if (st.latency_ms.Percentile(99) <= shape.limit_ms) within_limit = rate;
  }
  out->per_layer.Set("serve.ladder_p99_within_limit_qps", within_limit,
                     "1/s");
  // Capacity: closed loop, `saturation_window` requests outstanding per
  // connection. One stream is sent once to warm the result cache for the
  // served generation, then `saturation_runs` more times; query_max_qps
  // is the median goodput of those — the highest rate the served stack
  // sustains on this host, load generator included.
  LoadPlan saturation;
  saturation.connections = kConnections;
  saturation.window = shape.saturation_window;
  saturation.drain_timeout_ms = 5000;
  // Due times are ignored in a closed loop: this is just a stream of
  // about saturation_queries queries.
  AddQueries(load.mix, load.rng, shape.saturation_queries, 1.0, 0,
             kConnections, &saturation);
  Samples goodput;
  for (size_t i = 0; i <= shape.saturation_runs; ++i) {
    ::usleep(50000);
    OpStats st = load.Run(saturation, nullptr, "saturation");
    steps.Obj(i == 0 ? std::string("saturation_warmup")
                     : "saturation_" + std::to_string(i),
              PhaseReport(st, 0));
    if (i > 0) goodput.Add(st.goodput_per_s);
  }
  double max_qps = goodput.Median();
  out->per_layer.Set("query_max_qps", max_qps, "1/s", goodput.count());
  out->report.Obj("ladder", steps);
  serve::ServiceMetrics end = stack.service->metrics();
  out->per_layer.Set("serve.shed", static_cast<double>(end.shed), "count");
  out->per_layer.Set("serve.deadline_exceeded",
                     static_cast<double>(end.deadline_exceeded), "count");
  out->per_layer.Set("serve.degraded", static_cast<double>(end.degraded),
                     "count");
  out->per_layer.Set("serve.net.ladder_paused_reads",
                     static_cast<double>(load.max_paused), "count");
  out->per_layer.Set(
      "serve.net.peak_out_buffer",
      static_cast<double>(stack.server->stats().peak_out_buffer), "bytes");
}

// ---------------------------------------------------------------- ingest

namespace {

struct Replayed {
  uint64_t checksum = 0;
  double wall_s = 0;
};

/// Appends `records` to a fresh resolver seeded like the served one. With
/// `wal_dir` set it drives the live path's calls one by one — WAL append,
/// AddRecord, snapshot, PublishIndex — under spans; without, it is the
/// serial IncrementalResolver replay the served index must equal.
Replayed Replay(const Stack& stack, const std::vector<data::Record>& records,
                const std::string& wal_dir, Tracer* tracer,
                MetricSet* per_layer) {
  core::IncrementalResolver resolver(
      stack.corpus, core::RankedResolution(stack.index->matches()),
      stack.model, yver::synth::Gazetteer::MakeOwnedGeoResolver());
  Replayed out;
  int64_t start = NowNs();
  if (wal_dir.empty()) {
    for (const data::Record& r : records) resolver.AddRecord(r);
    out.checksum = serve::ResolutionIndex(resolver.Resolution(),
                                          resolver.dataset().size())
                       .Checksum();
    out.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
    return out;
  }
  std::vector<serve::WalRecoveredRecord> none;
  auto wal = serve::WriteAheadLog::Open(wal_dir, serve::WalOptions{}, &none);
  if (!wal.ok()) return out;
  serve::ServiceOptions options;
  options.num_threads = kServiceThreads;
  serve::ResolutionService service(stack.index, options);
  Samples matches;
  std::shared_ptr<const serve::ResolutionIndex> last;
  start = NowNs();
  for (size_t i = 0; i < records.size(); ++i) {
    ScopedSpan root(tracer, "append", 0, i + 1);
    {
      ScopedSpan span(tracer, "serve.wal_append", root.id(), i + 1);
      if (!(*wal)->Append(records[i]).ok()) return out;
    }
    {
      ScopedSpan span(tracer, "core.add_record", root.id(), i + 1);
      resolver.AddRecord(records[i]);
    }
    matches.Add(static_cast<double>(resolver.last_matches().size()));
    {
      ScopedSpan span(tracer, "serve.snapshot", root.id(), i + 1);
      last = std::make_shared<const serve::ResolutionIndex>(
          resolver.Resolution(), resolver.dataset().size());
    }
    ScopedSpan span(tracer, "serve.publish", root.id(), i + 1);
    if (!service.PublishIndex(last).ok()) return out;
  }
  out.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  out.checksum = last != nullptr ? last->Checksum() : stack.index->Checksum();
  if (per_layer != nullptr) {
    per_layer->Set("core.matches_per_append", matches.Mean(), "count",
                   matches.count());
  }
  return out;
}

/// Reads back what the log holds, as `yver_cli serve` recovers it: the
/// appended-suffix snapshot first, then log records beyond it.
bool RecoverAppends(const std::string& wal_dir,
                    std::vector<data::Record>* records, std::string* why) {
  std::string snapshot = wal_dir + "/snapshot-appends.csv";
  size_t covered = 0;
  if (::access(snapshot.c_str(), F_OK) == 0) {
    auto snap = data::LoadDatasetCsv(snapshot);
    if (!snap) {
      *why = "cannot read " + snapshot;
      return false;
    }
    for (const data::Record& r : snap->records()) records->push_back(r);
    covered = snap->size();
  }
  std::vector<serve::WalRecoveredRecord> recovered;
  auto wal = serve::WriteAheadLog::Open(wal_dir, serve::WalOptions{},
                                        &recovered);
  if (!wal.ok()) {
    *why = wal.status().ToString();
    return false;
  }
  for (serve::WalRecoveredRecord& rec : recovered) {
    if (rec.sequence > covered) records->push_back(std::move(rec.record));
  }
  return true;
}

std::string AppendBytes(const data::Record& r) {
  std::string bytes;
  wire::EncodeAppend(r, &bytes);
  return bytes;
}

}  // namespace

IngestResult RunIngestPhase(Stack& stack,
                            const std::vector<data::Record>& appends,
                            const ServeShape& shape, uint64_t seed,
                            Tracer* tracer, const std::string& label,
                            Outcome* out) {
  IngestResult result;
  yver::util::Rng rng(seed);
  QueryMix mix(stack.corpus.size(), rng.Next());
  LoadPlan plan;
  plan.connections = 2;  // 0: appends, 1: queries and probes
  size_t n = std::min(appends.size(),
                      static_cast<size_t>(shape.append_rate * shape.ingest_s));
  plan.appends.assign(appends.begin(), appends.begin() + n);
  for (size_t i = 0; i < n; ++i) {
    Op op;
    op.due_ns = static_cast<int64_t>(static_cast<double>(i) /
                                     shape.append_rate * 1e9);
    op.conn = 0;
    op.kind = OpKind::kAppend;
    op.payload = static_cast<uint32_t>(i);
    plan.ops.push_back(op);
  }
  AddQueries(mix, rng, shape.ingest_query_qps, shape.ingest_s, 1, 1, &plan);
  // Probe slots run on past the last append so late publishes are seen.
  const double probe_end_s = shape.ingest_s + 1.0;
  for (double t = 0; t < probe_end_s; t += shape.probe_interval_ms * 1e-3) {
    Op op;
    op.due_ns = static_cast<int64_t>(t * 1e9);
    op.conn = 1;
    op.kind = OpKind::kProbeSlot;
    plan.ops.push_back(op);
  }
  SortOps(&plan);

  uint64_t max_queue = 0, max_paused = 0;
  auto sample = [&] {
    serve::IngestStats st = stack.live->stats();
    max_queue = std::max(max_queue, st.submitted - st.applied);
    max_paused = std::max(max_paused, stack.server->stats().paused_reads);
  };
  serve::ServiceMetrics before = stack.service->metrics();
  LoadRun run = RunOpenLoop(stack.server->port(), plan, tracer, sample);
  if (!run.connected) out->Fail("ingest: cannot connect");

  // Appends: acked, then visible (first OK probe), both timed from due.
  Samples& ack_ms = result.ack_ms;
  Samples& visible_ms = result.visible_ms;
  std::vector<data::Record>& acked = result.acked;
  uint64_t append_failed = 0, invisible = 0;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    if (op.kind != OpKind::kAppend) continue;
    const OpResult& r = run.results[i];
    const int64_t due = run.start_ns + op.due_ns;
    if (r.status != 0) {
      ++append_failed;
      ack_ms.Add(kMissedMs);
      visible_ms.Add(kMissedMs);
      continue;
    }
    acked.push_back(plan.appends[op.payload]);
    ack_ms.Add(Ms(r.done_ns - due));
    int64_t visible = run.visible_ns[op.payload];
    if (visible == 0) {
      ++invisible;  // a publish stall past the deadline: a failed append
      visible_ms.Add(kMissedMs);
    } else {
      visible_ms.Add(Ms(visible - due));
    }
  }
  OpStats queries = Analyze(plan, run, OpKind::kQuery);
  OpStats probes = Analyze(plan, run, OpKind::kProbeSlot, true);
  out->attempted += n + queries.sent + probes.sent;
  out->failed += append_failed + invisible + queries.failed + probes.failed;
  if (append_failed + invisible > 0) {
    out->Fail("ingest: " + std::to_string(append_failed) +
              " appends not acked, " + std::to_string(invisible) +
              " acked appends never became visible");
  }
  result.query_ms = queries.latency_ms;
  out->report.Obj(label + "_ingest",
                  Json()
                      .Int("appends_sent", n)
                      .Int("appends_acked", acked.size())
                      .Int("appends_failed", append_failed)
                      .Int("appends_invisible", invisible)
                      .Num("ack_p90_ms", ack_ms.Percentile(90))
                      .Num("ack_p95_ms", ack_ms.Percentile(95))
                      .Num("visible_p90_ms", visible_ms.Percentile(90))
                      .Num("visible_p95_ms", visible_ms.Percentile(95))
                      .Obj("queries", PhaseReport(queries,
                                                  shape.ingest_query_qps))
                      .Int("probes_sent", probes.sent)
                      .Int("probes_failed", probes.failed));

  // Quiesce: everything acked must be published.
  auto idle = stack.live->WaitForIdle(
      yver::util::Deadline::AfterMillis(5000));
  if (!idle.ok()) {
    result.stalled = true;
    out->Fail("ingest: live index did not go idle: " + idle.ToString());
    return result;
  }
  serve::ServiceMetrics after = stack.service->metrics();
  uint64_t hits = after.cache_hits - before.cache_hits;
  uint64_t looked = hits + after.cache_misses - before.cache_misses;
  out->per_layer.Set("serve.ingest_cache_hit_ratio",
                     looked == 0 ? 0.0 : static_cast<double>(hits) / looked,
                     "ratio", looked);
  out->per_layer.Set("serve.evicted_stale",
                     static_cast<double>(after.evicted_stale -
                                         before.evicted_stale),
                     "count");
  result.served_checksum = stack.service->PinIndex()->Checksum();
  out->per_layer.Set(
      "serve.retained_snapshots",
      static_cast<double>(stack.service->index_manager().retained_snapshots()),
      "count");
  serve::WalStats wal_stats = stack.wal->stats();
  serve::IngestStats ingest_stats = stack.live->stats();
  out->per_layer.Set("serve.wal_appends_per_fsync",
                     wal_stats.fsyncs == 0
                         ? 0.0
                         : static_cast<double>(wal_stats.appends) /
                               static_cast<double>(wal_stats.fsyncs),
                     "ratio");
  out->per_layer.Set("serve.publishes_per_append",
                     ingest_stats.applied == 0
                         ? 0.0
                         : static_cast<double>(ingest_stats.published) /
                               static_cast<double>(ingest_stats.applied),
                     "ratio");
  out->per_layer.Set("serve.ingest_queue_max", static_cast<double>(max_queue),
                     "count");
  out->per_layer.Set("serve.net.ingest_paused_reads",
                     static_cast<double>(max_paused), "count");
  return result;
}

void VerifyIngest(Stack& stack, const IngestResult& ingest,
                  const std::string& work_dir, Tracer* tracer,
                  bool measure_overhead, Outcome* out) {
  const std::vector<data::Record>& acked = ingest.acked;
  const uint64_t served_checksum = ingest.served_checksum;
  // Durable and equal to a serial replay: stop the stack, read the log
  // back, and replay it into a fresh resolver.
  stack.Shutdown();
  stack.server.reset();
  stack.live.reset();
  stack.wal.reset();
  std::vector<data::Record> logged;
  std::string why;
  if (!RecoverAppends(stack.wal_dir, &logged, &why)) {
    out->Fail("ingest: " + why);
    return;
  }
  bool same_log = logged.size() == acked.size();
  for (size_t i = 0; same_log && i < logged.size(); ++i) {
    same_log = AppendBytes(logged[i]) == AppendBytes(acked[i]);
  }
  if (!same_log) {
    out->Fail("ingest: the WAL does not hold exactly the acked appends (" +
              std::to_string(logged.size()) + " logged, " +
              std::to_string(acked.size()) + " acked)");
  }
  const bool tracing = tracer != nullptr && tracer->enabled();
  Replayed replay = Replay(stack, logged, "", nullptr, nullptr);
  if (replay.checksum != served_checksum) {
    out->Fail("ingest: served index differs from the serial replay");
  }
  if (tracing) {
    Replayed traced = Replay(stack, logged, work_dir + "/replay-traced",
                             tracer, &out->per_layer);
    if (traced.checksum != served_checksum) {
      out->Fail("ingest: traced replay differs from the served index");
    }
    if (measure_overhead) {
      Replayed plain = Replay(stack, logged, work_dir + "/replay-plain",
                              nullptr, nullptr);
      if (plain.wall_s > 0) {
        out->per_layer.Set("bench.trace_overhead",
                           traced.wall_s / plain.wall_s - 1.0, "ratio");
      }
    }
  }
}

}  // namespace perfbench
