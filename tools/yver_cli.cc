// yver_cli — command-line front end for the uncertain-ER library.
//
//   yver_cli generate    --persons N [--region italy|all] [--mv] [--seed S]
//                        --out data.csv
//   yver_cli stats       --in data.csv
//   yver_cli normalize   --in data.csv --out clean.csv
//   yver_cli resolve     --in data.csv --out matches.csv [--ng X]
//                        [--maxminsup K] [--no-classify] [--samesrc]
//                        [--model-out model.adt] [--threads T] [--profile]
//   yver_cli index       --in data.csv --matches matches.csv --out idx.yvx
//   yver_cli query       --in data.csv (--matches matches.csv | --index idx.yvx)
//                        [--certainty C] [--book-id B] [--k K]
//   yver_cli serve       --in data.csv (--matches matches.csv | --index idx.yvx)
//                        [--port P] [--port-file F] [--threads T]
//                        [--dispatch-threads D] [--max-batch B] [--no-cache]
//                        [--live] [--model model.adt] [--publish-batch N]
//                        [--ingest-queue N] [--wal-dir D]
//                        [--wal-segment-bytes N] [--wal-snapshot-every N]
//   yver_cli append      --port P --in new.csv [--count N] [--wait-ms D]
//                        [--verify] [--verify-from I]
//   yver_cli loadgen     --port P [--connections C] [--queries N] [--qps Q]
//                        [--certainty X] [--k K] [--deadline-ms D]
//                        [--hot-set H] [--entity-fraction F] [--seed S]
//                        [--record cap.yvr | --replay cap.yvr] [--json]
//   yver_cli sample      --in data.csv --out sub.csv [--fraction F]
//                        [--by-entity] [--country NAME] [--seed S]
//   yver_cli graph       --in data.csv (--matches matches.csv | --index idx.yvx)
//                        --out g.dot [--certainty C] [--max-entities N]
//   yver_cli families    --in data.csv (--matches matches.csv | --index idx.yvx)
//                        [--certainty C] [--max-shown N]
//
// `resolve` trains the ADTree from the simulated expert tagger when the
// dataset carries ground-truth entity ids (synthetic corpora do); without
// them it falls back to block-score ranking (--no-classify implied).
// `--threads T` parallelizes the whole pipeline (0 = one worker per
// hardware thread); output is byte-identical for every thread count.
// `--profile` prints the per-stage wall-time breakdown (encode / blocking
// / extract / tag / train / score / merge), making the one-time columnar
// encode cost vs. the per-pair extraction win visible on real runs, with
// blocking split into its substages plus whatever none of them times, and
// the blocks considered, scored and kept.
//
// `index` freezes a matches CSV into the binary serve::ResolutionIndex
// artifact; `query`, `graph`, `families` and `serve` accept either form
// and build the same in-memory index from both.
//
// `serve` puts the index on the wire (DESIGN.md §12): a binary TCP front
// end on 127.0.0.1 that `loadgen` drives with a synthetic or replayed
// workload. `yver_cli serve --help` documents every serving knob.
//
// `serve --live` watches for appends (DESIGN.md §13): kAppendRequest
// frames feed a background IncrementalResolver that publishes fresh index
// generations while queries keep flowing against pinned snapshots.
// `append` is the matching client: it streams records from a CSV into a
// live server, waits for the generation containing them to be served, and
// optionally queries one back as an end-to-end proof.
//
// `serve --live --wal-dir D` makes ingest durable (DESIGN.md §14): every
// append is written through a write-ahead log in D before it is ack'd, and
// a restart replays D so previously ack'd records are served again —
// `append --verify-from I` is the matching crash-recovery check.

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "adversary.h"
#include "core/entity_clusters.h"
#include "core/evaluation.h"
#include "core/family_resolution.h"
#include "core/incremental.h"
#include "core/knowledge_graph.h"
#include "core/narrative.h"
#include "core/pipeline.h"
#include "core/resolution_io.h"
#include "data/csv_io.h"
#include "data/sample.h"
#include "data/stats.h"
#include "ml/adtree_io.h"
#include "serve/ingest.h"
#include "serve/net/client.h"
#include "serve/net/loadgen.h"
#include "serve/net/server.h"
#include "serve/query.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "serve/wal.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "synth/tag_oracle.h"
#include "text/normalizer.h"
#include "util/atomic_io.h"
#include "util/deadline.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace {

using namespace yver;

// ---------------------------------------------------------------------------
// Tiny flag parser: --name value / --name (boolean).

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      std::string name = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[name] = argv[++i];
      } else {
        values_[name] = "";
      }
    }
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  /// --name parsed as T (a double or an unsigned integer type), or
  /// `fallback` when the flag is absent. A value that does not parse
  /// completely, or does not fit T (a negative count, a port past 65535),
  /// exits 2 with a message naming the flag.
  template <typename T>
    requires std::is_same_v<T, double> || std::is_unsigned_v<T>
  T Get(const std::string& name, T fallback) const {
    if (!Has(name)) return fallback;
    const std::string text = Get(name);
    char* end = nullptr;
    errno = 0;
    if constexpr (std::is_same_v<T, double>) {
      double value = std::strtod(text.c_str(), &end);
      if (!text.empty() && *end == '\0' && errno == 0) return value;
      Reject(name, text, "a number");
    } else {
      // strtoull would wrap "-1" to its maximum, so a count must start
      // with a digit.
      unsigned long long value = std::strtoull(text.c_str(), &end, 10);
      if (std::isdigit(static_cast<unsigned char>(text[0])) &&
          *end == '\0' && errno == 0 &&
          value <= std::numeric_limits<T>::max()) {
        return static_cast<T>(value);
      }
      Reject(name, text,
             "an integer in [0, " +
                 std::to_string(std::numeric_limits<T>::max()) + "]");
    }
  }
  std::string Require(const std::string& name) const {
    if (!Has(name)) {
      std::fprintf(stderr, "missing required flag --%s\n", name.c_str());
      std::exit(2);
    }
    return Get(name);
  }

 private:
  [[noreturn]] static void Reject(const std::string& name,
                                  const std::string& text,
                                  const std::string& expected) {
    std::fprintf(stderr, "--%s: expected %s, got '%s'\n", name.c_str(),
                 expected.c_str(), text.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------------
// Typed options. Each subcommand parses its Flags exactly once, before it
// loads anything. A knob the library already defines parses straight into
// the library's options struct, with that struct's initializer as its
// default; only flags the CLI alone has get fields here.

/// Options of the `resolve` pipeline family.
struct ResolveOptions {
  std::string in;
  std::string out;
  std::string model_out;  // empty = don't save the model
  uint32_t max_minsup = 5;
  double ng = 3.5;
  bool discard_same_source = false;
  bool no_classify = false;
  bool profile = false;
  size_t threads = 0;  // 0 = one worker per hardware thread

  core::PipelineConfig ToPipelineConfig(bool has_ground_truth) const {
    core::PipelineConfig config;
    config.blocking.max_minsup = max_minsup;
    config.blocking.ng = ng;
    config.blocking.expert_weighting = true;
    config.discard_same_source = discard_same_source;
    config.use_classifier = has_ground_truth && !no_classify;
    config.num_threads = threads;
    return config;
  }
};

ResolveOptions ParseResolveOptions(const Flags& flags) {
  ResolveOptions options;
  options.in = flags.Require("in");
  options.out = flags.Require("out");
  options.model_out = flags.Get("model-out");
  options.max_minsup = flags.Get("maxminsup", options.max_minsup);
  options.ng = flags.Get("ng", options.ng);
  options.discard_same_source = flags.Has("samesrc");
  options.no_classify = flags.Has("no-classify");
  options.profile = flags.Has("profile");
  options.threads = flags.Get("threads", options.threads);
  return options;
}

// Prints the per-stage wall-time breakdown of a resolve run, with the
// blocking stage further broken into its parallel substages and the share
// of it no substage times, then how much block scoring the bound saved.
void PrintStageProfile(const core::PipelineResult& result) {
  const core::StageTimings& t = result.timings;
  struct Row {
    const char* name;
    double seconds;
  };
  const Row rows[] = {
      {"encode (bags + comparison corpus)", t.encode_seconds},
      {"blocking (MFIBlocks + filters)", t.blocking_seconds},
      {"extract (48-feature vectors)", t.extract_seconds},
      {"tag (expert labels, serial)", t.tag_seconds},
      {"train (ADTree boosting)", t.train_seconds},
      {"score (ADTree batch)", t.score_seconds},
      {"merge (match assembly + rank)", t.merge_seconds},
  };
  const blocking::BlockingTimings& b = t.blocking_substages;
  const Row blocking_rows[] = {
      {"  mine (FP-Growth itemsets)", b.mine_seconds},
      {"  support (supports + block life)", b.support_seconds},
      {"  score (block scoring)", b.score_seconds},
      {"  threshold (sparse neighborhood)", b.threshold_seconds},
      {"  emit (pair maps + coverage)", b.emit_seconds},
      {"  untimed remainder", t.blocking_seconds - b.TotalSeconds()},
  };
  double total = t.TotalSeconds();
  auto print_row = [total](const Row& row) {
    std::printf("  %-36s %9.3f s  %5.1f%%\n", row.name, row.seconds,
                total > 0.0 ? 100.0 * row.seconds / total : 0.0);
  };
  std::printf("\nstage profile (wall time):\n");
  for (size_t i = 0; i < std::size(rows); ++i) {
    print_row(rows[i]);
    if (i == 1) {  // the blocking row: append its substage breakdown
      for (const Row& sub : blocking_rows) print_row(sub);
    }
  }
  std::printf("  %-36s %9.3f s\n", "total (timed stages)", total);
  const blocking::MfiBlocksResult& r = result.blocking;
  std::printf("blocking counts: %zu itemsets mined, %zu blocks considered, "
              "%zu scored, %zu kept\n",
              r.num_mfis_mined, r.num_blocks_considered, r.num_blocks_scored,
              r.blocks.size());
}

/// --certainty, which must not be NaN. Mirrors serve::ValidateQuery: the
/// clustering paths that bypass the service must never see a NaN
/// threshold (it disables the break in the sorted-scan loops).
double ParseCertainty(const Flags& flags, double fallback) {
  double certainty = flags.Get("certainty", fallback);
  if (std::isnan(certainty)) {
    std::fprintf(stderr, "--certainty must not be NaN\n");
    std::exit(2);
  }
  return certainty;
}

/// One query of the given shape; a `deadline_ms` of 0 means none.
serve::Query MakeQuery(data::RecordIdx record, serve::Granularity granularity,
                       double certainty, size_t k, double deadline_ms) {
  serve::Query query;
  query.record = record;
  query.certainty = certainty;
  query.k = k;
  query.granularity = granularity;
  if (deadline_ms > 0) {
    query.deadline = util::Deadline::AfterMillis(deadline_ms);
  }
  return query;
}

/// The corpus an index-backed command loads: the dataset CSV and its
/// resolution, as a binary index (preferred) or a ranked matches CSV.
struct Corpus {
  std::string in;
  std::string matches;
  std::string index_path;
};

Corpus ParseCorpus(const Flags& flags) {
  return {flags.Require("in"), flags.Get("matches"), flags.Get("index")};
}

/// Options of the commands that read a resolution (`index`, `query`,
/// `graph`, `families`).
struct QueryOptions {
  Corpus corpus;
  std::string out;  // index/graph output path
  double certainty = 0.0;
  size_t k = 0;
  double deadline_ms = 0;  // per-query budget; 0 = none
  std::optional<uint64_t> book_id;
  size_t max_entities = 25;  // graph
  size_t max_shown = 5;      // families
};

QueryOptions ParseQueryOptions(const Flags& flags) {
  QueryOptions o;
  o.certainty = ParseCertainty(flags, o.certainty);
  o.k = flags.Get("k", o.k);
  o.deadline_ms = flags.Get("deadline-ms", o.deadline_ms);
  if (flags.Has("book-id")) o.book_id = flags.Get("book-id", uint64_t{0});
  o.max_entities = flags.Get("max-entities", o.max_entities);
  o.max_shown = flags.Get("max-shown", o.max_shown);
  o.corpus = ParseCorpus(flags);
  o.out = flags.Get("out");
  return o;
}

/// `serve`: the flags only the CLI has, beside the library structs that
/// every other serving knob parses into.
struct ServeCommand {
  Corpus corpus;
  std::string port_file;   // write the bound port here once listening
                           // (scripts find an ephemeral server without
                           // racing)
  bool live = false;       // accept appends (DESIGN.md §13)
  std::string model_path;  // ADTree for incremental scoring (optional;
                           // without it, block-score ranking)
  std::string wal_dir;     // write-ahead log directory; empty = acks mean
                           // enqueued, not durable
  serve::ServiceOptions service;
  serve::net::ServerOptions server;
  serve::IngestOptions ingest;
  serve::WalOptions wal;
};

ServeCommand ParseServe(const Flags& flags) {
  ServeCommand c;
  c.corpus = ParseCorpus(flags);
  c.port_file = flags.Get("port-file");
  c.live = flags.Has("live");
  c.model_path = flags.Get("model");
  c.wal_dir = flags.Get("wal-dir");

  serve::ServiceOptions& s = c.service;
  s.num_threads = flags.Get("threads", s.num_threads);
  if (flags.Has("no-cache")) s.cache_capacity = 0;
  s.max_in_flight = flags.Get("max-in-flight", s.max_in_flight);
  s.max_queue_depth = flags.Get("max-queue-depth", s.max_queue_depth);

  serve::net::ServerOptions& o = c.server;
  o.port = flags.Get("port", o.port);
  o.dispatch_threads = flags.Get("dispatch-threads", o.dispatch_threads);
  o.max_batch = flags.Get("max-batch", o.max_batch);
  o.max_connections = flags.Get("max-connections", o.max_connections);
  o.drain_timeout_ms = flags.Get("drain-timeout-ms", o.drain_timeout_ms);
  o.idle_timeout_ms = flags.Get("idle-timeout-ms", o.idle_timeout_ms);
  o.min_read_bytes_per_sec =
      flags.Get("min-read-rate", o.min_read_bytes_per_sec);
  o.progress_window_ms =
      flags.Get("progress-window-ms", o.progress_window_ms);
  o.max_out_buffer = flags.Get("max-out-buffer", o.max_out_buffer);
  o.max_in_buffer = flags.Get("max-in-buffer", o.max_in_buffer);
  o.so_sndbuf = flags.Get("sndbuf", o.so_sndbuf);
  o.max_frame_payload = flags.Get("max-frame-bytes", o.max_frame_payload);
  o.max_pending = flags.Get("max-pending", o.max_pending);
  o.write_stall_timeout_ms =
      flags.Get("write-stall-timeout-ms", o.write_stall_timeout_ms);
  o.conn_rate_limit = flags.Get("rate-limit", o.conn_rate_limit);
  o.conn_rate_burst = flags.Get("rate-burst", o.conn_rate_burst);
  o.global_rate_limit = flags.Get("global-rate-limit", o.global_rate_limit);
  o.global_rate_burst = flags.Get("global-rate-burst", o.global_rate_burst);
  o.rate_limit_disconnect_streak =
      flags.Get("rate-limit-streak", o.rate_limit_disconnect_streak);

  serve::IngestOptions& i = c.ingest;
  i.publish_batch = flags.Get("publish-batch", i.publish_batch);
  i.max_queue_depth = flags.Get("ingest-queue", i.max_queue_depth);
  // The CLI's documented default: with --wal-dir, snapshot every 256
  // appends (IngestOptions' own default, 0, never snapshots).
  if (!c.wal_dir.empty()) i.snapshot_every = 256;
  i.snapshot_every = flags.Get("wal-snapshot-every", i.snapshot_every);
  c.wal.segment_bytes = flags.Get("wal-segment-bytes", c.wal.segment_bytes);
  return c;
}

/// The flags `loadgen` and `append` share: both are wire clients of a
/// running `serve`, so the port, the read budget and the query shape parse
/// into the load generator's struct, which already defines them.
serve::net::LoadGenOptions ParseClientOptions(const Flags& flags) {
  serve::net::LoadGenOptions o;
  o.certainty = ParseCertainty(flags, o.certainty);
  o.k = flags.Get("k", o.k);
  o.deadline_ms = flags.Get("deadline-ms", o.deadline_ms);
  o.port = flags.Get("port", o.port);
  o.read_timeout_ms = flags.Get("io-timeout-ms", o.read_timeout_ms);
  return o;
}

/// `loadgen`: a load test, or with --adversary an attack.
struct LoadGenCommand {
  bool json = false;  // machine-readable report on stdout
  serve::net::LoadGenOptions load;
  std::optional<serve::net::AdversaryOptions> attack;  // set by --adversary
};

LoadGenCommand ParseLoadGen(const Flags& flags) {
  LoadGenCommand c;
  c.json = flags.Has("json");
  c.load = ParseClientOptions(flags);
  serve::net::LoadGenOptions& o = c.load;
  o.connections = flags.Get("connections", o.connections);
  o.num_queries = flags.Get("queries", o.num_queries);
  o.qps = flags.Get("qps", o.qps);
  o.hot_set = flags.Get("hot-set", o.hot_set);
  o.entity_fraction = flags.Get("entity-fraction", o.entity_fraction);
  o.seed = flags.Get("seed", o.seed);
  o.record_path = flags.Get("record");
  o.replay_path = flags.Get("replay");
  std::string mode = flags.Get("adversary");
  if (mode.empty()) return c;
  auto parsed = serve::net::ParseAdversaryMode(mode);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    std::exit(2);
  }
  serve::net::AdversaryOptions& a = c.attack.emplace();
  a.port = o.port;
  a.mode = *parsed;
  // --connections, --seed and --io-timeout-ms are loadgen's flags, with
  // loadgen's documented defaults (1, 17, 30000), not AdversaryOptions'
  // (4, 1, 10000).
  a.connections = o.connections;
  a.seed = o.seed;
  a.read_timeout_ms = o.read_timeout_ms;
  a.duration_ms = flags.Get("duration-ms", a.duration_ms);
  a.write_interval_ms = flags.Get("write-interval-ms", a.write_interval_ms);
  return c;
}

/// `append`: what to send and how to check it, beside the client options
/// it shares with `loadgen`.
struct AppendCommand {
  std::string in;          // CSV of records to append
  size_t count = 0;        // records to send (0 = all)
  double wait_ms = 10000;  // bound on the publish wait
  bool verify = false;     // query the last record back
  std::optional<uint64_t> verify_from;  // query every record from this
                                        // index up (crash recovery)
  serve::net::LoadGenOptions client;
};

AppendCommand ParseAppend(const Flags& flags) {
  AppendCommand c;
  c.client = ParseClientOptions(flags);
  c.in = flags.Require("in");
  c.count = flags.Get("count", c.count);
  c.wait_ms = flags.Get("wait-ms", c.wait_ms);
  c.verify = flags.Has("verify");
  if (flags.Has("verify-from")) {
    c.verify_from = flags.Get("verify-from", uint64_t{0});
  }
  return c;
}

// Every serving knob, documented exactly once; printed by --help on
// serve, loadgen, and append.
constexpr const char kServeHelp[] =
    "serving subcommands:\n"
    "\n"
    "  serve       --in data.csv (--matches m.csv | --index idx.yvx)\n"
    "              binary TCP front end on 127.0.0.1; SIGINT/SIGTERM\n"
    "              drains in-flight queries before exiting\n"
    "  loadgen     --port P\n"
    "              wire client driving a running `serve`\n"
    "  append      --port P --in new.csv\n"
    "              wire client streaming records into `serve --live`\n"
    "\n"
    "corpus (serve):\n"
    "  --in F                dataset CSV (required)\n"
    "  --matches F           ranked matches CSV\n"
    "  --index F             binary resolution index (preferred)\n"
    "  --threads T           service worker threads (0 = hw threads)\n"
    "  --no-cache            disable the query cache\n"
    "  --max-in-flight N     admission budget; 0 = no shedding (0)\n"
    "  --max-queue-depth N   waiters allowed beyond the budget (0)\n"
    "\n"
    "server (serve):\n"
    "  --port P              bind port (0 = kernel-assigned, default)\n"
    "  --port-file F         write the bound port to F once listening\n"
    "  --dispatch-threads D  batches in flight across connections (1)\n"
    "  --max-batch B         queries per dispatch per connection (64)\n"
    "  --max-connections N   accept cap; excess closed at once (1024)\n"
    "  --drain-timeout-ms D  graceful-shutdown bound (5000)\n"
    "\n"
    "connection defense (serve; DESIGN.md \xc2\xa7" "15):\n"
    "  --idle-timeout-ms D   drop a quiescent connection after D (300000)\n"
    "  --min-read-rate R     min bytes/sec while a frame is partial;\n"
    "                        slower is a slow-loris drop (64; 0 = off)\n"
    "  --progress-window-ms W  window the read rate is judged over (5000)\n"
    "  --max-out-buffer N    per-connection response backlog cap in bytes;\n"
    "                        a reader that falls behind it is dropped\n"
    "                        (67108864; 0 = unbounded)\n"
    "  --max-in-buffer N     per-connection receive buffer cap (67108864)\n"
    "  --sndbuf N            clamp SO_SNDBUF on accepted sockets so the\n"
    "                        kernel cannot absorb a dead reader's backlog\n"
    "                        past --max-out-buffer (0 = kernel default)\n"
    "  --max-frame-bytes N   reject frames declaring > N payload bytes\n"
    "                        before buffering any (0 = protocol max)\n"
    "  --max-pending N       decoded-but-undispatched queries per\n"
    "                        connection before reads pause (0 = 2*batch)\n"
    "  --write-stall-timeout-ms D  drop if no response byte drains for D\n"
    "                        while a backlog exists (30000; 0 = off)\n"
    "  --rate-limit Q        per-connection queries/sec token bucket;\n"
    "                        excess answered RESOURCE_EXHAUSTED (0 = off)\n"
    "  --rate-burst B        bucket depth (0 = one second's worth)\n"
    "  --global-rate-limit Q server-wide bucket across connections (0)\n"
    "  --global-rate-burst B global bucket depth (0)\n"
    "  --rate-limit-streak N consecutive limited frames before the\n"
    "                        connection is dropped (1024; 0 = never)\n"
    "\n"
    "workload shape (loadgen):\n"
    "  --queries N           total queries (1000)\n"
    "  --certainty C         confidence threshold in [0,1) (0)\n"
    "  --k K                 top-k matches per query (0 = all)\n"
    "  --deadline-ms D       per-query budget; 0 = none\n"
    "  --hot-set H           distinct hot records queried (1024)\n"
    "\n"
    "load generator (loadgen):\n"
    "  --connections C       concurrent client connections (1)\n"
    "  --qps Q               open-loop target rate; 0 = closed loop\n"
    "  --entity-fraction F   fraction at entity granularity (0)\n"
    "  --seed S              workload RNG seed (17)\n"
    "  --record F            capture every query frame sent to F\n"
    "  --replay F            replay a capture byte-identically\n"
    "  --json                machine-readable report on stdout\n"
    "  --io-timeout-ms D     client blocking-read budget; a stalled\n"
    "                        server is a typed DEADLINE_EXCEEDED, not a\n"
    "                        hang (30000; 0 = wait forever)\n"
    "\n"
    "adversarial client (loadgen --adversary MODE):\n"
    "  --adversary MODE      attack instead of load: slowloris | dribble\n"
    "                        | never-read | garbage | half-close\n"
    "  --duration-ms D       attack wall-clock budget (2000)\n"
    "  --write-interval-ms I pause between dribbled bytes (50)\n"
    "                        (--connections and --seed apply here too)\n"
    "\n"
    "live index updates (serve):\n"
    "  --live                accept kAppendRequest frames; a background\n"
    "                        builder publishes new index generations while\n"
    "                        queries keep flowing\n"
    "  --model F             ADTree for incremental match scoring\n"
    "                        (default: block-score ranking)\n"
    "  --publish-batch N     records applied per published generation (1)\n"
    "  --ingest-queue N      append backpressure: queue cap before\n"
    "                        RESOURCE_EXHAUSTED (4096)\n"
    "\n"
    "durable ingest (serve --live):\n"
    "  --wal-dir D           write appends through a write-ahead log in D\n"
    "                        before acking; on startup, replay D so every\n"
    "                        previously ack'd record is served again\n"
    "                        (without it, acks mean enqueued, not durable)\n"
    "  --wal-segment-bytes N rotate log segments at N bytes (4 MiB)\n"
    "  --wal-snapshot-every N  snapshot the appended records to CSV and\n"
    "                        retire covered segments every N appends (256)\n"
    "\n"
    "append client (append):\n"
    "  --in F                CSV of records to append (required)\n"
    "  --count N             send only the first N records (0 = all)\n"
    "  --wait-ms D           bound on waiting for the generation that\n"
    "                        contains every ack'd record (10000)\n"
    "  --verify              query the last appended record back and\n"
    "                        print its match count\n"
    "  --verify-from I       additionally query every record index in\n"
    "                        [I, corpus size) — the crash-recovery check\n"
    "                        that previously ack'd records still answer\n";

data::Dataset LoadOrDie(const std::string& path) {
  auto dataset = data::LoadDatasetCsvLenient(path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "cannot load dataset from %s: %s\n", path.c_str(),
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(dataset).value();
}

bool HasGroundTruth(const data::Dataset& dataset) {
  for (const auto& r : dataset.records()) {
    if (r.entity_id != data::kUnknownEntity) return true;
  }
  return false;
}

// Materializes the in-memory index from whichever artifact the corpus
// names: the binary index (preferred) or the matches CSV.
std::shared_ptr<const serve::ResolutionIndex> LoadIndexOrDie(
    const data::Dataset& dataset, const Corpus& corpus) {
  // Load paths retry transient failures (a torn concurrent write shows up
  // as DATA_LOSS; NFS hiccups as UNAVAILABLE) before giving up.
  util::RetryStats retry_stats;
  if (!corpus.index_path.empty()) {
    // The record count is checked against the dataset before the index
    // sizes anything by it.
    auto loaded = serve::ResolutionIndex::LoadWithRetry(
        corpus.index_path, util::RetryPolicy{}, &retry_stats,
        util::Deadline(), dataset.size());
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s (after %d attempt(s))\n",
                   loaded.status().ToString().c_str(), retry_stats.attempts);
      std::exit(1);
    }
    return std::make_shared<const serve::ResolutionIndex>(
        *std::move(loaded));
  }
  if (corpus.matches.empty()) {
    std::fprintf(stderr, "need --matches or --index\n");
    std::exit(2);
  }
  auto resolution = core::LoadMatchesCsvWithRetry(
      dataset, corpus.matches, util::RetryPolicy{}, &retry_stats);
  if (!resolution.ok()) {
    std::fprintf(stderr, "%s (after %d attempt(s))\n",
                 resolution.status().ToString().c_str(),
                 retry_stats.attempts);
    std::exit(1);
  }
  // The CSV is untrusted input: Build validates instead of CHECK-failing.
  auto built = serve::ResolutionIndex::Build(*resolution, dataset.size());
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    std::exit(1);
  }
  return std::make_shared<const serve::ResolutionIndex>(*std::move(built));
}

std::map<uint64_t, data::RecordIdx> BookIdIndex(
    const data::Dataset& dataset) {
  std::map<uint64_t, data::RecordIdx> by_book;
  for (data::RecordIdx r = 0; r < dataset.size(); ++r) {
    by_book[dataset[r].book_id] = r;
  }
  return by_book;
}

// ---------------------------------------------------------------------------
// Commands

int CmdGenerate(const Flags& flags) {
  synth::GeneratorConfig config;
  std::string region = util::ToLower(flags.Get("region", "all"));
  if (region == "italy") {
    config = synth::ItalyConfig();
  } else if (region != "all") {
    std::fprintf(stderr, "unknown --region %s (use italy|all)\n",
                 region.c_str());
    return 2;
  }
  config.num_persons = flags.Get("persons", config.num_persons);
  if (flags.Has("mv")) config.include_mv = true;
  config.seed = flags.Get("seed", config.seed);
  auto generated = synth::Generate(config);
  std::string out = flags.Require("out");
  if (!data::SaveDatasetCsv(generated.dataset, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu reports of %zu persons to %s\n",
              generated.dataset.size(), generated.persons.size(),
              out.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  data::Dataset dataset = LoadOrDie(flags.Require("in"));
  std::printf("records: %zu\n", dataset.size());
  if (HasGroundTruth(dataset)) {
    std::printf("gold matched pairs: %zu\n", dataset.NumGoldPairs());
  }
  auto patterns = data::ComputePatternStats(dataset);
  std::printf("distinct data patterns: %zu\n\n", patterns.NumPatterns());
  std::printf("%-28s %10s %12s\n", "records-with-pattern bucket",
              "#patterns", "sum #records");
  for (const auto& bucket : patterns.Fig11Buckets()) {
    std::printf("%-28s %10zu %12zu\n", bucket.label.c_str(),
                bucket.num_patterns, bucket.num_records);
  }
  std::printf("\n%-18s %10s %6s %8s\n", "Item Type", "Records", "%",
              "Items");
  auto prevalence = data::ComputePrevalence(dataset);
  auto cardinality = data::ComputeCardinality(dataset);
  for (size_t a = 0; a < data::kNumAttributes; ++a) {
    std::printf("%-18s %10zu %5.0f%% %8zu\n",
                std::string(data::AttributeDisplayName(
                                static_cast<data::AttributeId>(a)))
                    .c_str(),
                prevalence[a].num_records, prevalence[a].fraction * 100.0,
                cardinality[a].num_items);
  }
  return 0;
}

int CmdNormalize(const Flags& flags) {
  data::Dataset dataset = LoadOrDie(flags.Require("in"));
  auto normalizer = text::NameNormalizer::Build(dataset);
  data::Dataset normalized = normalizer.Apply(dataset);
  std::string out = flags.Require("out");
  if (!data::SaveDatasetCsv(normalized, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("normalized %zu records (%zu equivalence classes, %zu values "
              "folded) -> %s\n",
              normalized.size(), normalizer.NumNonTrivialClasses(),
              normalizer.NumFoldedValues(), out.c_str());
  return 0;
}

int CmdResolve(const ResolveOptions& options) {
  data::Dataset dataset = LoadOrDie(options.in);
  synth::Gazetteer gazetteer;
  core::UncertainErPipeline pipeline(dataset, gazetteer.MakeGeoResolver());
  bool can_classify = HasGroundTruth(dataset);
  core::PipelineConfig config = options.ToPipelineConfig(can_classify);
  if (!can_classify && !options.no_classify) {
    std::fprintf(stderr,
                 "note: no ground truth for tagger; falling back to "
                 "block-score ranking\n");
  }

  synth::TagOracle oracle(&dataset);
  auto result = pipeline.Run(
      config, [&oracle](data::RecordIdx a, data::RecordIdx b) {
        return oracle.Tag(a, b);
      });
  std::printf("blocking: %zu blocks, %zu candidate pairs; resolution: %zu "
              "ranked matches\n",
              result.blocking.blocks.size(), result.blocking.pairs.size(),
              result.resolution.size());
  if (options.profile) PrintStageProfile(result);
  if (HasGroundTruth(dataset)) {
    auto q = core::EvaluateMatches(dataset, result.resolution.matches());
    std::printf("vs ground truth: precision %.3f recall %.3f F1 %.3f\n",
                q.Precision(), q.Recall(), q.F1());
  }
  auto saved = core::SaveMatchesCsv(dataset, result.resolution, options.out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu matches to %s\n", result.resolution.size(),
              options.out.c_str());
  if (!options.model_out.empty() && config.use_classifier) {
    if (ml::SaveAdTree(result.model, options.model_out)) {
      std::printf("wrote model to %s\n", options.model_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write model\n");
      return 1;
    }
  }
  return 0;
}

int CmdIndex(const QueryOptions& options) {
  if (options.out.empty()) {
    std::fprintf(stderr, "missing required flag --out\n");
    return 2;
  }
  data::Dataset dataset = LoadOrDie(options.corpus.in);
  auto index = LoadIndexOrDie(dataset, options.corpus);
  auto saved = index->Save(options.out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu matches over %zu records -> %s "
              "(checksum %016llx)\n",
              index->num_matches(), index->num_records(),
              options.out.c_str(),
              static_cast<unsigned long long>(index->Checksum()));
  return 0;
}

int CmdQuery(const QueryOptions& options) {
  data::Dataset dataset = LoadOrDie(options.corpus.in);
  auto index = LoadIndexOrDie(dataset, options.corpus);
  core::EntityClusters clusters = index->ClustersAt(options.certainty);
  std::printf("%zu matches above certainty %.2f -> %zu entities (%zu "
              "multi-report)\n",
              index->CountAbove(options.certainty), options.certainty,
              clusters.size(), clusters.NumNonSingleton());
  if (options.book_id) {
    auto by_book = BookIdIndex(dataset);
    auto it = by_book.find(*options.book_id);
    if (it == by_book.end()) {
      std::fprintf(stderr, "unknown book id\n");
      return 1;
    }
    serve::ResolutionService service(index);
    auto result = service.QueryRecord(
        MakeQuery(it->second, serve::Granularity::kEntity, options.certainty,
                  options.k, options.deadline_ms));
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    auto profile = core::BuildProfile(dataset, result->entity);
    std::printf("\nEntity of BookID %llu (%zu report(s)):\n%s\n",
                static_cast<unsigned long long>(*options.book_id),
                result->entity.size(),
                core::RenderNarrative(profile).c_str());
  } else {
    size_t shown = 0;
    for (const auto& cluster : clusters.clusters()) {
      if (cluster.size() < 2) break;
      auto profile = core::BuildProfile(dataset, cluster);
      std::printf("* %s\n", core::RenderNarrative(profile).c_str());
      if (++shown == 5) break;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Wire serving: `serve` runs the TCP front end until SIGINT/SIGTERM,
// `loadgen` drives one from the client side.

std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

int CmdServe(ServeCommand options) {
  data::Dataset dataset = LoadOrDie(options.corpus.in);
  auto index = LoadIndexOrDie(dataset, options.corpus);

  // --live: seed an incremental resolver with exactly the corpus +
  // resolution the serving index was built over, and let a background
  // builder publish new generations as appends arrive. With --wal-dir the
  // resolver additionally replays the durable history (snapshot CSV, then
  // the log) before the first query is admitted, so every previously
  // ack'd record is served again (DESIGN.md §14).
  serve::DurableIngest durable;
  std::shared_ptr<serve::LiveIndexBuilder> builder;
  std::unique_ptr<core::IncrementalResolver> resolver;
  if (options.live) {
    ml::AdTree model;
    if (!options.model_path.empty()) {
      auto loaded = ml::LoadAdTree(options.model_path);
      if (!loaded) {
        std::fprintf(stderr, "cannot load model from %s\n",
                     options.model_path.c_str());
        return 1;
      }
      model = *std::move(loaded);
    }
    // The owned resolver keeps its gazetteer alive for as long as the
    // serving resolver does — a scoped Gazetteer here would dangle once
    // the builder thread starts calling AddRecord.
    resolver = std::make_unique<core::IncrementalResolver>(
        dataset, core::RankedResolution(index->matches()), std::move(model),
        synth::Gazetteer::MakeOwnedGeoResolver());
    if (!options.wal_dir.empty()) {
      auto opened = serve::OpenDurableIngest(options.wal_dir, options.wal,
                                             resolver.get(), &options.ingest);
      if (!opened.ok()) {
        std::fprintf(stderr, "wal recovery in %s: %s\n",
                     options.wal_dir.c_str(),
                     opened.status().ToString().c_str());
        return 1;
      }
      durable = std::move(opened).value();
    }
    if (resolver->dataset().size() > dataset.size()) {
      // Serve the recovered corpus from generation 1: the index is a pure
      // function of (seed corpus, ack'd-append prefix), exactly as if the
      // crash never happened.
      index = std::make_shared<const serve::ResolutionIndex>(
          resolver->Resolution(), resolver->dataset().size());
    }
  }

  auto service =
      std::make_shared<serve::ResolutionService>(index, options.service);
  if (options.live) {
    builder = std::make_shared<serve::LiveIndexBuilder>(
        service, std::move(resolver), options.ingest);
  }

  serve::net::Server server(service, options.server, builder);
  auto started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  if (!options.port_file.empty()) {
    // Written after listen succeeds, and write-then-rename so a polling
    // script can never read a partially written port number: the file
    // either doesn't exist yet or holds the complete port line.
    util::Status wrote = util::WriteFileAtomic(
        options.port_file, std::to_string(server.port()) + "\n");
    if (!wrote.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", options.port_file.c_str(),
                   wrote.ToString().c_str());
      server.Shutdown();
      return 1;
    }
  }
  std::printf("serving %zu records / %zu matches on 127.0.0.1:%u "
              "(%zu service thread(s), %zu dispatcher(s))\n",
              index->num_records(), index->num_matches(), server.port(),
              service->num_threads(), options.server.dispatch_threads);
  const serve::IngestOptions& ingest = options.ingest;
  if (builder) {
    std::printf("live ingest on: appends publish every %zu record(s), "
                "queue cap %zu\n",
                ingest.publish_batch == 0 ? size_t{1} : ingest.publish_batch,
                ingest.max_queue_depth);
  }
  if (durable.wal) {
    std::printf("wal: recovered %zu record(s) (%zu from snapshot, %zu from "
                "log) from %s; durable sequence %llu\n",
                durable.from_snapshot + durable.from_log,
                durable.from_snapshot, durable.from_log,
                options.wal_dir.c_str(),
                static_cast<unsigned long long>(
                    durable.wal->durable_sequence()));
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_requested.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("draining...\n");
  server.Shutdown();
  auto stats = server.stats();
  std::printf("served %llu queries over %llu connection(s) "
              "(%llu responses, %llu protocol error(s))\n",
              static_cast<unsigned long long>(stats.queries_dispatched),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.responses_sent),
              static_cast<unsigned long long>(stats.protocol_errors));
  if (builder) {
    builder->Stop();
    auto ingest_stats = builder->stats();
    auto metrics = service->metrics();
    std::printf("live ingest: %llu appended, %llu published generation(s) "
                "(now serving generation %llu, %llu publish failure(s))\n",
                static_cast<unsigned long long>(ingest_stats.applied),
                static_cast<unsigned long long>(ingest_stats.published),
                static_cast<unsigned long long>(metrics.generation),
                static_cast<unsigned long long>(ingest_stats.publish_failures));
  }
  if (durable.wal) {
    auto wal_stats = durable.wal->stats();
    std::printf("wal: %llu append(s) in %llu fsync batch(es), %llu "
                "rotation(s), %llu segment(s) on disk, %llu snapshot(s)\n",
                static_cast<unsigned long long>(wal_stats.appends),
                static_cast<unsigned long long>(wal_stats.fsyncs),
                static_cast<unsigned long long>(wal_stats.rotations),
                static_cast<unsigned long long>(wal_stats.segments),
                builder ? static_cast<unsigned long long>(
                              builder->stats().snapshots)
                        : 0ULL);
  }
  return 0;
}

// loadgen --adversary MODE: run the hostile-client harness instead of a
// load test, and report what the server's defense layer did about it.
int CmdAdversary(const serve::net::AdversaryOptions& options, bool json) {
  auto report = serve::net::RunAdversary(options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  if (json) {
    std::printf(
        "{\"adversary\": \"%s\", \"connections_opened\": %llu, "
        "\"bytes_sent\": %llu, \"frames_sent\": %llu, "
        "\"responses_read\": %llu, \"ok_responses\": %llu, "
        "\"error_responses\": %llu, \"server_closed\": %llu, "
        "\"clean_eofs\": %llu}\n",
        serve::net::AdversaryModeName(options.mode),
        static_cast<unsigned long long>(report->connections_opened),
        static_cast<unsigned long long>(report->bytes_sent),
        static_cast<unsigned long long>(report->frames_sent),
        static_cast<unsigned long long>(report->responses_read),
        static_cast<unsigned long long>(report->ok_responses),
        static_cast<unsigned long long>(report->error_responses),
        static_cast<unsigned long long>(report->server_closed),
        static_cast<unsigned long long>(report->clean_eofs));
    return 0;
  }
  std::printf("%s\n",
              serve::net::FormatAdversaryReport(options.mode, *report).c_str());
  return 0;
}

int CmdLoadGen(const LoadGenCommand& command) {
  const serve::net::LoadGenOptions& options = command.load;
  if (options.port == 0) {
    std::fprintf(stderr, "missing required flag --port\n");
    return 2;
  }
  if (command.attack) return CmdAdversary(*command.attack, command.json);
  if (!options.record_path.empty() && !options.replay_path.empty()) {
    std::fprintf(stderr, "--record and --replay are mutually exclusive\n");
    return 2;
  }
  auto report = serve::net::RunLoadGen(options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  if (command.json) {
    std::printf(
        "{\"queries_sent\": %llu, \"ok\": %llu, \"errors\": %llu, "
        "\"wall_seconds\": %.6f, \"qps\": %.1f, "
        "\"response_hash\": \"%016llx\", "
        "\"client_p50_ms\": %.3f, \"client_p95_ms\": %.3f, "
        "\"client_p99_ms\": %.3f, \"server_p50_ms\": %.3f, "
        "\"server_p95_ms\": %.3f, \"server_p99_ms\": %.3f, "
        "\"server_queries\": %llu, \"server_shed\": %llu, "
        "\"server_deadline_exceeded\": %llu, \"cache_hit_rate\": %.4f}\n",
        static_cast<unsigned long long>(report->queries_sent),
        static_cast<unsigned long long>(report->ok),
        static_cast<unsigned long long>(report->errors),
        report->wall_seconds, report->qps_achieved,
        static_cast<unsigned long long>(report->response_hash),
        report->LatencyPercentileMs(0.50),
        report->LatencyPercentileMs(0.95),
        report->LatencyPercentileMs(0.99),
        report->server_metrics.LatencyPercentileMs(0.50),
        report->server_metrics.LatencyPercentileMs(0.95),
        report->server_metrics.LatencyPercentileMs(0.99),
        static_cast<unsigned long long>(report->server_metrics.queries),
        static_cast<unsigned long long>(report->server_metrics.shed),
        static_cast<unsigned long long>(
            report->server_metrics.deadline_exceeded),
        report->server_metrics.HitRate());
    return 0;
  }
  std::printf("%llu queries over %zu connection(s) in %.2f s "
              "(%.0f qps%s): %llu ok, %llu error frame(s)\n",
              static_cast<unsigned long long>(report->queries_sent),
              options.connections, report->wall_seconds,
              report->qps_achieved,
              options.qps > 0 ? ", open loop" : ", closed loop",
              static_cast<unsigned long long>(report->ok),
              static_cast<unsigned long long>(report->errors));
  std::printf("client latency: p50 %.3f ms  p95 %.3f ms  p99 %.3f ms "
              "(log2-bucket upper bounds)\n",
              report->LatencyPercentileMs(0.50),
              report->LatencyPercentileMs(0.95),
              report->LatencyPercentileMs(0.99));
  std::printf("server latency: p50 %.3f ms  p95 %.3f ms  p99 %.3f ms "
              "(%llu served, cache hit rate %.1f%%)\n",
              report->server_metrics.LatencyPercentileMs(0.50),
              report->server_metrics.LatencyPercentileMs(0.95),
              report->server_metrics.LatencyPercentileMs(0.99),
              static_cast<unsigned long long>(report->server_metrics.queries),
              100.0 * report->server_metrics.HitRate());
  std::printf("response hash: %016llx\n",
              static_cast<unsigned long long>(report->response_hash));
  return 0;
}

// Streams records from a CSV into a `serve --live` server and waits until
// the served generation contains every ack'd record — the end-to-end proof
// the TSan loopback smoke runs: append over the wire, watch the generation
// advance, query the new record back.
int CmdAppend(const AppendCommand& options) {
  const serve::net::LoadGenOptions& client_options = options.client;
  if (client_options.port == 0) {
    std::fprintf(stderr, "missing required flag --port\n");
    return 2;
  }
  data::Dataset dataset = LoadOrDie(options.in);
  if (dataset.size() == 0) {
    std::fprintf(stderr, "no records to append in %s\n", options.in.c_str());
    return 1;
  }
  size_t count = options.count == 0 ? dataset.size()
                                    : std::min(options.count, dataset.size());
  util::Deadline deadline = options.wait_ms > 0
                                ? util::Deadline::AfterMillis(options.wait_ms)
                                : util::Deadline();

  auto client = serve::net::Client::Connect(client_options.port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  // A wedged server must fail the append run with a typed status, not
  // hang it: every blocking read below inherits this budget.
  client->set_read_timeout_ms(client_options.read_timeout_ms);
  uint64_t first_idx = 0;
  uint64_t last_idx = 0;
  size_t durable_acks = 0;
  uint64_t last_wal_sequence = 0;
  for (size_t i = 0; i < count; ++i) {
    auto ack = client->Append(dataset[static_cast<data::RecordIdx>(i)],
                              deadline);
    if (!ack.ok()) {
      // A full ingest queue surfaces here as RESOURCE_EXHAUSTED, a server
      // without --live as UNAVAILABLE — both are the server's typed answer.
      std::fprintf(stderr, "append %zu/%zu: %s\n", i + 1, count,
                   ack.status().ToString().c_str());
      return 1;
    }
    if (i == 0) first_idx = ack->record_idx;
    last_idx = ack->record_idx;
    if (ack->durable) {
      ++durable_acks;
      last_wal_sequence = ack->wal_sequence;
    }
  }

  // The ack is acceptance, not visibility: poll Info until the serving
  // generation covers the last assigned index.
  serve::wire::ServerInfo info;
  for (;;) {
    auto got = client->Info(deadline);
    if (!got.ok()) {
      std::fprintf(stderr, "%s\n", got.status().ToString().c_str());
      return 1;
    }
    info = *got;
    if (info.num_records > last_idx) break;
    if (!deadline.is_infinite() && deadline.HasExpired()) {
      std::fprintf(stderr,
                   "timed out waiting for a generation containing record "
                   "%llu (server at %llu records, generation %llu)\n",
                   static_cast<unsigned long long>(last_idx),
                   static_cast<unsigned long long>(info.num_records),
                   static_cast<unsigned long long>(info.metrics.generation));
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::printf("appended %zu record(s) as indices %llu..%llu; serving "
              "generation %llu (%llu publish(es), %llu records)\n",
              count, static_cast<unsigned long long>(first_idx),
              static_cast<unsigned long long>(last_idx),
              static_cast<unsigned long long>(info.metrics.generation),
              static_cast<unsigned long long>(info.metrics.publishes),
              static_cast<unsigned long long>(info.num_records));
  if (durable_acks > 0) {
    std::printf("durable: %zu/%zu ack(s) fsync'd through the server's WAL "
                "(last wal sequence %llu)\n",
                durable_acks, count,
                static_cast<unsigned long long>(last_wal_sequence));
  }

  // A verify query has the shape --certainty, --k and --deadline-ms give.
  auto verify_query = [&client_options](uint64_t idx) {
    return MakeQuery(static_cast<data::RecordIdx>(idx),
                     serve::Granularity::kMatches, client_options.certainty,
                     client_options.k, client_options.deadline_ms);
  };

  // --verify-from I: the crash-recovery check. Every corpus index in
  // [I, num_records) — typically the records a previous process ack'd
  // before being killed — must still answer OK from the recovered index.
  if (options.verify_from) {
    uint64_t from = *options.verify_from;
    if (from >= info.num_records) {
      std::fprintf(stderr,
                   "verify-from %llu is beyond the %llu-record corpus\n",
                   static_cast<unsigned long long>(from),
                   static_cast<unsigned long long>(info.num_records));
      return 1;
    }
    for (uint64_t idx = from; idx < info.num_records; ++idx) {
      auto result = client->Call(verify_query(idx));
      if (!result.ok()) {
        std::fprintf(stderr, "verify-from: record %llu: %s\n",
                     static_cast<unsigned long long>(idx),
                     result.status().ToString().c_str());
        return 1;
      }
    }
    std::printf("verify-from: records %llu..%llu all answer OK "
                "(generation %llu)\n",
                static_cast<unsigned long long>(from),
                static_cast<unsigned long long>(info.num_records - 1),
                static_cast<unsigned long long>(info.metrics.generation));
  }

  if (options.verify) {
    auto result = client->Call(verify_query(last_idx));
    if (!result.ok()) {
      std::fprintf(stderr, "verify query: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("verify: record %llu answers with %zu match(es) above "
                "certainty %.2f (generation %llu)\n",
                static_cast<unsigned long long>(last_idx),
                result->matches.size(), client_options.certainty,
                static_cast<unsigned long long>(result->generation));
  }
  return 0;
}

int CmdSample(const Flags& flags) {
  data::Dataset dataset = LoadOrDie(flags.Require("in"));
  data::Dataset result = dataset;
  if (flags.Has("country")) {
    result = data::FilterByCountry(result, flags.Get("country"));
  }
  if (flags.Has("fraction")) {
    double fraction = flags.Get("fraction", 1.0);
    util::Rng rng(flags.Get("seed", uint64_t{42}));
    result = flags.Has("by-entity")
                 ? data::SampleByEntity(result, fraction, rng)
                 : data::SampleUniform(result, fraction, rng);
  }
  std::string out = flags.Require("out");
  if (!data::SaveDatasetCsv(result, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("sampled %zu of %zu records -> %s\n", result.size(),
              dataset.size(), out.c_str());
  return 0;
}

int CmdGraph(const QueryOptions& options) {
  if (options.out.empty()) {
    std::fprintf(stderr, "missing required flag --out\n");
    return 2;
  }
  data::Dataset dataset = LoadOrDie(options.corpus.in);
  auto index = LoadIndexOrDie(dataset, options.corpus);
  core::EntityClusters clusters = index->ClustersAt(options.certainty);
  auto graph = core::KnowledgeGraph::FromClusters(dataset, clusters,
                                                  options.max_entities);
  size_t spouse_links = graph.LinkSpouses();
  std::ofstream f(options.out, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", options.out.c_str());
    return 1;
  }
  f << graph.ToDot();
  std::printf("knowledge graph: %zu nodes, %zu edges (%zu spouse links) "
              "-> %s\n",
              graph.nodes().size(), graph.edges().size(), spouse_links,
              options.out.c_str());
  return 0;
}

int CmdFamilies(const QueryOptions& options) {
  data::Dataset dataset = LoadOrDie(options.corpus.in);
  auto index = LoadIndexOrDie(dataset, options.corpus);
  core::EntityClusters persons = index->ClustersAt(options.certainty);
  auto families = core::ResolveFamilies(dataset, persons);
  size_t multi = 0;
  for (const auto& fc : families) multi += fc.person_clusters.size() > 1;
  std::printf("%zu person entities -> %zu family units (%zu joining "
              "multiple persons)\n",
              persons.size(), families.size(), multi);
  if (HasGroundTruth(dataset)) {
    auto q = core::EvaluateFamilyClusters(dataset, families);
    std::printf("family-level pair precision %.3f recall %.3f\n",
                q.Precision(), q.Recall());
  }
  size_t shown = 0;
  for (const auto& fc : families) {
    if (fc.person_clusters.size() < 2) continue;
    std::printf("\nfamily of %zu person(s), %zu report(s):\n",
                fc.person_clusters.size(), fc.records.size());
    for (size_t pc : fc.person_clusters) {
      auto profile =
          core::BuildProfile(dataset, persons.clusters()[pc]);
      std::printf("  - %s\n", core::RenderNarrative(profile).c_str());
    }
    if (++shown == options.max_shown) break;
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: yver_cli "
               "<generate|stats|normalize|resolve|index|query|serve|"
               "loadgen|append|sample|graph|families> "
               "[flags]\n(see the header of tools/yver_cli.cc; "
               "`yver_cli serve --help` covers the serving knobs)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    Usage();
    return 0;
  }
  Flags flags(argc, argv, 2);
  bool serving = cmd == "serve" || cmd == "loadgen" || cmd == "append";
  if (flags.Has("help")) {
    if (serving) {
      std::fputs(kServeHelp, stdout);
    } else {
      Usage();
    }
    return 0;
  }
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "normalize") return CmdNormalize(flags);
  if (cmd == "resolve") return CmdResolve(ParseResolveOptions(flags));
  if (cmd == "index") return CmdIndex(ParseQueryOptions(flags));
  if (cmd == "query") return CmdQuery(ParseQueryOptions(flags));
  if (cmd == "serve") return CmdServe(ParseServe(flags));
  if (cmd == "loadgen") return CmdLoadGen(ParseLoadGen(flags));
  if (cmd == "append") return CmdAppend(ParseAppend(flags));
  if (cmd == "sample") return CmdSample(flags);
  if (cmd == "graph") return CmdGraph(ParseQueryOptions(flags));
  if (cmd == "families") return CmdFamilies(ParseQueryOptions(flags));
  return Usage();
}
