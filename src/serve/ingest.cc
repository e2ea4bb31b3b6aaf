#include "serve/ingest.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "data/csv_io.h"
#include "data/dataset.h"
#include "util/atomic_io.h"
#include "util/check.h"

namespace yver::serve {

LiveIndexBuilder::LiveIndexBuilder(
    std::shared_ptr<ResolutionService> service,
    std::unique_ptr<core::IncrementalResolver> resolver,
    IngestOptions options)
    : service_(std::move(service)),
      resolver_(std::move(resolver)),
      options_(options) {
  YVER_CHECK_MSG(service_ != nullptr, "LiveIndexBuilder needs a service");
  YVER_CHECK_MSG(resolver_ != nullptr, "LiveIndexBuilder needs a resolver");
  if (options_.publish_batch == 0) options_.publish_batch = 1;
  base_records_ = resolver_->dataset().size();
  if (options_.wal != nullptr) {
    YVER_CHECK_MSG(options_.wal_base_records <= base_records_,
                   "wal_base_records exceeds the seeded corpus");
    // Whatever was already replayed into the resolver counts as covered:
    // the next snapshot triggers snapshot_every appends from *here*.
    last_snapshot_count_ = base_records_ - options_.wal_base_records;
  }
  builder_ = std::thread([this] { Run(); });
}

LiveIndexBuilder::~LiveIndexBuilder() { Stop(); }

util::StatusOr<data::RecordIdx> LiveIndexBuilder::Submit(
    data::Record record) {
  if (options_.wal == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return util::Status::Unavailable("live ingest is shutting down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      return util::Status::ResourceExhausted("ingest queue is full");
    }
    // The index is assigned here, at enqueue: base corpus + arrival
    // position. The builder applies strictly in queue order, so the record
    // is guaranteed to land at exactly this index in every generation that
    // contains it.
    data::RecordIdx idx =
        static_cast<data::RecordIdx>(base_records_ + submitted_);
    ++submitted_;
    queue_.push_back(std::move(record));
    work_cv_.notify_one();
    return idx;
  }

  // Durable path: submitters serialize through submit_mu_ so the WAL's
  // sequence order is exactly the queue's arrival order — the property
  // that lets replay reassign the same corpus indices the acks promised.
  // The fsync wait happens under submit_mu_ only; queries, stats, and the
  // builder's drain never block on it.
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return util::Status::Unavailable("live ingest is shutting down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      return util::Status::ResourceExhausted("ingest queue is full");
    }
  }
  auto sequence = options_.wal->Append(record);
  if (!sequence.ok()) return sequence.status();
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    // The record is durable but the builder is gone: it will replay (and
    // take this same index) on the next startup. The caller still gets a
    // typed refusal — an ack must mean "in the index soon", not "maybe
    // after a restart".
    return util::Status::Unavailable("live ingest is shutting down");
  }
  data::RecordIdx idx =
      static_cast<data::RecordIdx>(base_records_ + submitted_);
  YVER_CHECK_MSG(WalSequenceFor(idx) == *sequence,
                 "wal sequence diverged from the corpus index");
  ++submitted_;
  queue_.push_back(std::move(record));
  work_cv_.notify_one();
  return idx;
}

util::Status LiveIndexBuilder::WaitForIdle(const util::Deadline& deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  auto idle = [this] {
    return queue_.empty() && !dirty_ && applied_ == submitted_;
  };
  if (deadline.is_infinite()) {
    idle_cv_.wait(lock, idle);
    return util::Status::Ok();
  }
  while (!idle()) {
    if (deadline.HasExpired()) return deadline.Exceeded("ingest idle wait");
    idle_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
  return util::Status::Ok();
}

void LiveIndexBuilder::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !builder_.joinable()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (builder_.joinable()) builder_.join();
}

IngestStats LiveIndexBuilder::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IngestStats s;
  s.submitted = submitted_;
  s.applied = applied_;
  s.published = published_;
  s.publish_failures = publish_failures_;
  s.snapshots = snapshots_;
  s.snapshot_failures = snapshot_failures_;
  return s;
}

void LiveIndexBuilder::Run() {
  for (;;) {
    std::vector<data::Record> batch;
    bool need_publish = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (dirty_) {
        // A publish failed: retry shortly, or sooner if work arrives.
        work_cv_.wait_for(lock, std::chrono::milliseconds(2), [this] {
          return stopping_ || !queue_.empty();
        });
      } else {
        work_cv_.wait(lock,
                      [this] { return stopping_ || !queue_.empty(); });
      }
      if (stopping_ && queue_.empty() && !dirty_) return;
      size_t take = std::min(options_.publish_batch, queue_.size());
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      need_publish = dirty_ || !batch.empty();
    }
    if (!need_publish) continue;
    // Apply in arrival order — the whole determinism contract of live
    // ingest rests on this being the only order records ever enter the
    // resolver in.
    for (data::Record& record : batch) {
      resolver_->AddRecord(std::move(record));
    }
    // Snapshot the cumulative resolution and try to install it. The
    // snapshot is rebuilt from scratch per publish: generations are
    // immutable, so the previous one must not be mutated in place.
    auto snapshot = std::make_shared<const ResolutionIndex>(
        resolver_->Resolution(), resolver_->dataset().size());
    auto published = service_->PublishIndex(std::move(snapshot));
    {
      std::lock_guard<std::mutex> lock(mu_);
      applied_ += batch.size();
      if (published.ok()) {
        dirty_ = false;
        ++published_;
      } else {
        // Resolver state is cumulative; the next round republishes
        // everything applied so far. Nothing is lost.
        dirty_ = true;
        ++publish_failures_;
      }
    }
    if (published.ok()) MaybeSnapshot();
    idle_cv_.notify_all();
  }
}

void LiveIndexBuilder::MaybeSnapshot() {
  if (options_.wal == nullptr || options_.snapshot_every == 0 ||
      options_.snapshot_path.empty()) {
    return;
  }
  size_t appended = resolver_->dataset().size() - options_.wal_base_records;
  if (appended < last_snapshot_count_ + options_.snapshot_every) return;
  // Persist the appended suffix crash-atomically (stream the CSV to a tmp
  // path, fsync, rename), then retire the WAL segments it covers. A crash
  // between the rename and the Retire only leaves covered segments behind
  // — startup skips their records (sequence <= snapshot size) and the
  // next snapshot retires them.
  data::Dataset suffix;
  for (size_t i = options_.wal_base_records; i < resolver_->dataset().size();
       ++i) {
    suffix.Add(resolver_->dataset()[static_cast<data::RecordIdx>(i)]);
  }
  std::string tmp = options_.snapshot_path + ".tmp";
  util::Status persisted =
      data::SaveDatasetCsv(suffix, tmp)
          ? util::PromoteFileAtomic(tmp, options_.snapshot_path)
          : util::Status::Unavailable("cannot write " + tmp);
  if (persisted.ok()) {
    persisted = options_.wal->Retire(static_cast<uint64_t>(appended));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (persisted.ok()) {
    last_snapshot_count_ = appended;
    ++snapshots_;
  } else {
    // Non-fatal: the WAL still holds everything; retry at the next
    // publish boundary.
    ++snapshot_failures_;
  }
}

util::StatusOr<DurableIngest> OpenDurableIngest(
    const std::string& dir, const WalOptions& wal_options,
    core::IncrementalResolver* resolver, IngestOptions* ingest) {
  const size_t seed_records = resolver->dataset().size();
  const std::string snapshot_path = dir + "/snapshot-appends.csv";
  DurableIngest durable;
  // Replay order is the determinism contract: snapshot rows first (they
  // ARE the first appends, in arrival order), then every log record
  // beyond what the snapshot covers.
  if (::access(snapshot_path.c_str(), F_OK) == 0) {
    auto snapshot = data::LoadDatasetCsvLenient(snapshot_path);
    if (!snapshot.ok()) {
      return util::Status(snapshot.status().code(),
                          "snapshot " + snapshot_path + ": " +
                              snapshot.status().message());
    }
    for (const data::Record& r : snapshot->records()) resolver->AddRecord(r);
    durable.from_snapshot = snapshot->size();
  }
  std::vector<WalRecoveredRecord> recovered;
  auto opened = WriteAheadLog::Open(dir, wal_options, &recovered);
  if (!opened.ok()) return opened.status();
  durable.wal = std::move(opened).value();
  for (WalRecoveredRecord& rec : recovered) {
    // Sequences the snapshot covers are already in (their segments just
    // haven't been retired yet).
    if (rec.sequence <= durable.from_snapshot) continue;
    resolver->AddRecord(std::move(rec.record));
    ++durable.from_log;
  }
  ingest->wal = durable.wal.get();
  ingest->wal_base_records = seed_records;
  ingest->snapshot_path = snapshot_path;
  return durable;
}

}  // namespace yver::serve
