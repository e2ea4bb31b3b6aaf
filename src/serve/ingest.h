#ifndef YVER_SERVE_INGEST_H_
#define YVER_SERVE_INGEST_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/incremental.h"
#include "data/record.h"
#include "serve/resolution_service.h"
#include "serve/wal.h"
#include "util/deadline.h"
#include "util/status.h"

namespace yver::serve {

/// Tuning knobs for a LiveIndexBuilder.
struct IngestOptions {
  /// Records drained from the queue per builder round; every round that
  /// applied at least one record ends in a publish, so this is the
  /// publish granularity (1 = a generation per record, larger batches
  /// amortize the snapshot build under bursty ingest).
  size_t publish_batch = 1;
  /// Submissions beyond this many undrained records are shed with
  /// RESOURCE_EXHAUSTED — ingest backpressure mirrors query admission.
  size_t max_queue_depth = 4096;
  /// Durable ingest (DESIGN.md §14): when set, Submit appends the record
  /// to this log and returns only once it is fsync'd — the returned index
  /// (and the wire ack built from it) means *durable*, not *enqueued*.
  /// Not owned; must outlive the builder.
  WriteAheadLog* wal = nullptr;
  /// Corpus records that are NOT in the WAL (the seed corpus the log's
  /// first record lands after): WAL sequence s occupies corpus index
  /// wal_base_records + s - 1. Only meaningful with `wal`.
  size_t wal_base_records = 0;
  /// Every this many applied records the builder persists the appended
  /// suffix as a crash-atomic CSV snapshot at `snapshot_path` and retires
  /// WAL segments the snapshot covers (0 = never snapshot).
  size_t snapshot_every = 0;
  std::string snapshot_path;
};

/// Point-in-time ingest counters.
struct IngestStats {
  uint64_t submitted = 0;        // records accepted into the queue
  uint64_t applied = 0;          // records run through the resolver
  uint64_t published = 0;        // successful index publishes
  uint64_t publish_failures = 0; // failed publishes (retried next round)
  uint64_t snapshots = 0;        // appended-suffix snapshots persisted
  uint64_t snapshot_failures = 0;// failed snapshot writes (retried later)
};

/// The live half of the archive (DESIGN.md §13): a single background
/// builder thread that turns appended reports into published index
/// generations. `Submit` assigns the record its corpus index at enqueue
/// time (base corpus size + arrival position) and returns immediately;
/// the builder drains the queue in arrival order, feeds each record
/// through core::IncrementalResolver (item interning, candidate
/// generation, scoring — the paper's trickle-ingest path), snapshots the
/// cumulative resolution into an immutable ResolutionIndex, and installs
/// it via ResolutionService::PublishIndex.
///
/// Determinism contract: the final published index is a pure function of
/// (seed corpus, submission order) — batch boundaries and publish
/// failures only change *which intermediate* generations exist, never
/// the bytes of the final one. The builder is deliberately one thread:
/// arrival order is the only order.
///
/// Failure model: a publish that fails (fault injection at
/// serve.index.publish) leaves the resolver state intact and the builder
/// dirty; the next round republishes the cumulative snapshot, so a
/// transiently failing publish delays visibility but never loses or
/// reorders records.
class LiveIndexBuilder {
 public:
  /// Takes ownership of a seeded resolver and starts the builder thread.
  /// The resolver must be seeded with exactly the corpus the service's
  /// current index was built over.
  LiveIndexBuilder(std::shared_ptr<ResolutionService> service,
                   std::unique_ptr<core::IncrementalResolver> resolver,
                   IngestOptions options = {});
  ~LiveIndexBuilder();

  LiveIndexBuilder(const LiveIndexBuilder&) = delete;
  LiveIndexBuilder& operator=(const LiveIndexBuilder&) = delete;

  /// Enqueues one report and returns the corpus index it will occupy once
  /// published. RESOURCE_EXHAUSTED when the queue is full, UNAVAILABLE
  /// after Stop. Thread-safe; arrival order across concurrent submitters
  /// is whatever order they won the queue lock in — each caller's records
  /// keep their relative order.
  ///
  /// With a WAL configured, Submit persists the record first (group
  /// commit; the call blocks on the fsync) and only then lets the builder
  /// see it, so a successful return means the record survives a crash.
  /// Submitters serialize through the log: WAL order *is* arrival order,
  /// which is what makes replay reproduce the exact corpus indices that
  /// were acked.
  util::StatusOr<data::RecordIdx> Submit(data::Record record);

  /// True when appends are written through a WAL (the ack means durable).
  bool durable() const { return options_.wal != nullptr; }

  /// The WAL sequence that produced (or will produce) corpus index `idx`.
  /// Only meaningful when durable().
  uint64_t WalSequenceFor(data::RecordIdx idx) const {
    return static_cast<uint64_t>(idx) - options_.wal_base_records + 1;
  }

  /// Blocks until everything submitted so far is applied AND published
  /// (the service is serving a generation that contains it), or the
  /// deadline expires (DEADLINE_EXCEEDED). Publish faults make this wait
  /// through the retry rounds.
  util::Status WaitForIdle(const util::Deadline& deadline = {});

  /// Drains the queue, publishes what it can, and joins the builder
  /// thread. Idempotent; the dtor calls it. New Submits are refused from
  /// the moment Stop begins.
  void Stop();

  IngestStats stats() const;

  /// Records in the seed corpus (the first appended record gets this
  /// index).
  size_t base_records() const { return base_records_; }

 private:
  void Run();

  /// Builder-thread only: persists the appended suffix of the corpus as a
  /// crash-atomic CSV and retires the WAL segments it covers.
  void MaybeSnapshot();

  std::shared_ptr<ResolutionService> service_;
  std::unique_ptr<core::IncrementalResolver> resolver_;  // builder thread only
  IngestOptions options_;
  size_t base_records_ = 0;
  uint64_t last_snapshot_count_ = 0;  // appended records covered (builder thread)

  /// Serializes durable submits: the WAL append (including the group-
  /// commit wait) and the enqueue happen under this lock so the log order
  /// equals the queue order. Never held while mu_ is wanted by others for
  /// long — the fsync wait happens here, not under mu_.
  std::mutex submit_mu_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // builder wakes on submit/stop
  std::condition_variable idle_cv_;   // waiters wake on publish
  std::deque<data::Record> queue_;
  bool stopping_ = false;
  /// Applied-but-not-yet-published records exist (a publish failed).
  bool dirty_ = false;
  uint64_t submitted_ = 0;
  uint64_t applied_ = 0;
  uint64_t published_ = 0;
  uint64_t publish_failures_ = 0;
  uint64_t snapshots_ = 0;
  uint64_t snapshot_failures_ = 0;

  std::thread builder_;
};

/// What OpenDurableIngest replayed from a durable-ingest directory.
struct DurableIngest {
  std::unique_ptr<WriteAheadLog> wal;
  size_t from_snapshot = 0;  // records replayed from the snapshot CSV
  size_t from_log = 0;       // WAL records replayed past the snapshot
};

/// Opens the durable-ingest directory `dir` (DESIGN.md §14) the one way a
/// restart must: replays the appended-records snapshot CSV into
/// `resolver` (its rows are the first appends, in arrival order), opens
/// the write-ahead log, and replays every log record whose sequence is
/// greater than the snapshot's size. Then points `ingest` at the log, at
/// the seed corpus the log lands after, and at the snapshot path, so a
/// builder started with it keeps writing the layout this reads.
/// `resolver` must hold exactly the seed corpus; an unreadable snapshot
/// or log comes back as its typed status.
util::StatusOr<DurableIngest> OpenDurableIngest(
    const std::string& dir, const WalOptions& wal_options,
    core::IncrementalResolver* resolver, IngestOptions* ingest);

}  // namespace yver::serve

#endif  // YVER_SERVE_INGEST_H_
