// Tests of the durable-ingest layer (DESIGN.md §14): WriteAheadLog
// framing, group commit, segment rotation/retirement, and the recovery
// contract — acked records always survive, unacked records never
// reappear, torn tails are truncated, mid-file corruption is a typed
// refusal. The kill-and-restart process-level harness lives in
// scripts/check.sh; these are the in-process property tests behind it.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/ranked_resolution.h"
#include "data/csv_io.h"
#include "data/dataset.h"
#include "serve/ingest.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "serve/wal.h"
#include "util/byte_codec.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace yver::serve {
namespace {

using util::FaultConfig;
using util::FaultInjector;
using util::FaultPoint;
using util::StatusCode;

class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultConfig& config) {
    FaultInjector::Global().Arm(config);
  }
  ~ScopedFaultInjection() { FaultInjector::Global().Disarm(); }
};

data::Record MakeReport(uint64_t book_id, const std::string& first,
                        const std::string& last, const std::string& town) {
  data::Record r;
  r.book_id = book_id;
  r.source_id = static_cast<uint32_t>(book_id % 3);
  r.Add(data::AttributeId::kFirstName, first);
  r.Add(data::AttributeId::kLastName, last);
  r.Add(data::AttributeId::kBirthCity, town);
  return r;
}

data::Dataset MakeSeedCorpus() {
  data::Dataset dataset;
  dataset.Add(MakeReport(1, "chaim", "levi", "vilna"));
  dataset.Add(MakeReport(2, "chaim", "levi", "vilna"));
  dataset.Add(MakeReport(3, "sara", "cohen", "lodz"));
  dataset.Add(MakeReport(4, "dvora", "katz", "warsaw"));
  return dataset;
}

// Empties (and removes) `name` under the test temp dir so every test run
// starts from a log that does not exist yet; WriteAheadLog::Open creates
// it.
std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* ent = ::readdir(d)) {
      std::string n = ent->d_name;
      if (n == "." || n == "..") continue;
      ::unlink((dir + "/" + n).c_str());
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
  }
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Segment files in the directory, oldest first (the name sorts by first
// sequence).
std::vector<std::string> SegmentPaths(const std::string& dir) {
  std::vector<std::string> paths;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return paths;
  while (struct dirent* ent = ::readdir(d)) {
    std::string n = ent->d_name;
    if (n.size() > 8 && n.compare(0, 4, "wal-") == 0 &&
        n.compare(n.size() - 4, 4, ".yvw") == 0) {
      paths.push_back(dir + "/" + n);
    }
  }
  ::closedir(d);
  std::sort(paths.begin(), paths.end());
  return paths;
}

uint32_t ReadU32At(const std::string& bytes, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

// End offset of every record in a segment file, in order: records start
// after the 16-byte header and are length-prefixed, so the boundaries can
// be walked without decoding payloads.
std::vector<size_t> RecordEnds(const std::string& bytes) {
  constexpr size_t kHeader = 16;
  constexpr size_t kOverhead = 20;  // length + sequence + digest
  std::vector<size_t> ends;
  size_t off = kHeader;
  while (off + kOverhead <= bytes.size()) {
    size_t end = off + kOverhead + ReadU32At(bytes, off);
    if (end > bytes.size()) break;
    ends.push_back(end);
    off = end;
  }
  return ends;
}

util::StatusOr<std::unique_ptr<WriteAheadLog>> OpenWal(
    const std::string& dir, std::vector<WalRecoveredRecord>* recovered,
    size_t segment_bytes = 4u << 20) {
  WalOptions options;
  options.segment_bytes = segment_bytes;
  return WriteAheadLog::Open(dir, options, recovered);
}

// ---------------------------------------------------------------------------
// WriteAheadLog: append / recover round trips

TEST(WalTest, AppendAndReopenRoundTrip) {
  std::string dir = FreshDir("wal_roundtrip");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(recovered.empty());
  EXPECT_EQ((*wal)->durable_sequence(), 0u);

  for (uint64_t i = 0; i < 5; ++i) {
    auto seq = (*wal)->Append(
        MakeReport(700 + i, "name" + std::to_string(i), "x", "town"));
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, i + 1);
  }
  EXPECT_EQ((*wal)->durable_sequence(), 5u);
  EXPECT_EQ((*wal)->stats().appends, 5u);
  wal->reset();  // close the fd; simulate a clean restart

  auto reopened = OpenWal(dir, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), 5u);
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].sequence, i + 1);
    EXPECT_EQ(recovered[i].record.book_id, 700 + i);
    auto names = recovered[i].record.Values(data::AttributeId::kFirstName);
    ASSERT_NE(names.begin(), names.end());
    EXPECT_EQ(*names.begin(), "name" + std::to_string(i));
  }
  auto stats = (*reopened)->stats();
  EXPECT_EQ(stats.recovered_records, 5u);
  EXPECT_EQ(stats.durable_sequence, 5u);
  EXPECT_EQ(stats.truncated_tail_bytes, 0u);

  // The sequence counter survives the restart.
  auto next = (*reopened)->Append(MakeReport(800, "after", "restart", "z"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 6u);
}

TEST(WalTest, ConcurrentAppendersGroupCommit) {
  std::string dir = FreshDir("wal_group_commit");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::mutex mu;
  std::vector<std::pair<uint64_t, uint64_t>> acked;  // (sequence, book_id)
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t book_id = 1000 + static_cast<uint64_t>(t) * kPerThread + i;
        auto seq = (*wal)->Append(MakeReport(book_id, "c", "d", "e"));
        ASSERT_TRUE(seq.ok()) << seq.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        acked.emplace_back(*seq, book_id);
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr uint64_t kTotal = kThreads * kPerThread;
  auto stats = (*wal)->stats();
  EXPECT_EQ(stats.appends, kTotal);
  EXPECT_EQ(stats.durable_sequence, kTotal);
  // Group commit: never more fsyncs than appends; with 8 contending
  // appenders batches almost always coalesce, but a fully serialized
  // schedule (one fsync per append) is legal, so only the bound is hard.
  EXPECT_LE(stats.fsyncs, kTotal);
  EXPECT_GT(stats.fsyncs, 0u);

  // Sequences are exactly 1..N, each acked once.
  std::sort(acked.begin(), acked.end());
  ASSERT_EQ(acked.size(), kTotal);
  for (uint64_t s = 0; s < kTotal; ++s) EXPECT_EQ(acked[s].first, s + 1);

  wal->reset();
  auto reopened = OpenWal(dir, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), kTotal);
  for (uint64_t s = 0; s < kTotal; ++s) {
    EXPECT_EQ(recovered[s].sequence, s + 1);
    EXPECT_EQ(recovered[s].record.book_id, acked[s].second)
        << "recovered record at sequence " << s + 1
        << " is not the one acked under it";
  }
}

// ---------------------------------------------------------------------------
// Recovery property tests: torn tails and corruption

// The torn-tail property (the crash-mid-write contract): for EVERY
// truncation point of the segment file, recovery yields exactly the
// records that fit wholly before the cut — a strict prefix of what was
// acked, never an error, never an invented record.
TEST(WalTest, TornTailTruncatedAtEveryOffset) {
  std::string dir = FreshDir("wal_torn_build");
  std::vector<WalRecoveredRecord> recovered;
  {
    auto wal = OpenWal(dir, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          (*wal)->Append(MakeReport(900 + i, "torn" + std::to_string(i),
                                    "tail", "test"))
              .ok());
    }
  }
  auto segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string original = ReadFileBytes(segments.front());
  std::string segment_name =
      segments.front().substr(segments.front().find_last_of('/') + 1);
  std::vector<size_t> ends = RecordEnds(original);
  ASSERT_EQ(ends.size(), 4u);
  ASSERT_EQ(ends.back(), original.size());

  std::string scratch = FreshDir("wal_torn_scratch");
  for (size_t cut = 0; cut <= original.size(); ++cut) {
    SCOPED_TRACE("truncated at byte " + std::to_string(cut));
    FreshDir("wal_torn_scratch");
    ASSERT_EQ(::mkdir(scratch.c_str(), 0755), 0);
    WriteFileBytes(scratch + "/" + segment_name, original.substr(0, cut));

    auto wal = OpenWal(scratch, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    size_t expected = 0;
    while (expected < ends.size() && ends[expected] <= cut) ++expected;
    ASSERT_EQ(recovered.size(), expected);
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(recovered[i].sequence, i + 1);
      EXPECT_EQ(recovered[i].record.book_id, 900 + i);
    }
    auto stats = (*wal)->stats();
    EXPECT_EQ(stats.durable_sequence, expected);
    size_t valid_end = expected > 0 ? ends[expected - 1] : 16;
    EXPECT_EQ(stats.truncated_tail_bytes,
              cut > valid_end ? cut - valid_end : 0);

    // The log is open for business again: the next append continues the
    // sequence right after the surviving prefix.
    auto seq = (*wal)->Append(MakeReport(999, "fresh", "append", "ok"));
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, expected + 1);
  }
}

// Bit-flip fuzz: no single-bit corruption anywhere in the file can make
// recovery invent or reorder a record. Either Open refuses typed
// (DATA_LOSS) or it returns a strict prefix of the acked stream.
TEST(WalTest, BitFlipsNeverInventRecords) {
  std::string dir = FreshDir("wal_flip_build");
  std::vector<WalRecoveredRecord> recovered;
  {
    auto wal = OpenWal(dir, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*wal)->Append(MakeReport(300 + i, "flip" + std::to_string(i),
                                    "bits", "fuzz"))
              .ok());
    }
  }
  auto segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string original = ReadFileBytes(segments.front());
  std::string segment_name =
      segments.front().substr(segments.front().find_last_of('/') + 1);

  std::string scratch = FreshDir("wal_flip_scratch");
  for (size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " +
                   std::to_string(byte));
      FreshDir("wal_flip_scratch");
      ASSERT_EQ(::mkdir(scratch.c_str(), 0755), 0);
      std::string mutated = original;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      WriteFileBytes(scratch + "/" + segment_name, mutated);

      auto wal = OpenWal(scratch, &recovered);
      if (!wal.ok()) {
        EXPECT_EQ(wal.status().code(), StatusCode::kDataLoss)
            << wal.status().ToString();
        continue;
      }
      ASSERT_LE(recovered.size(), 3u);
      for (size_t i = 0; i < recovered.size(); ++i) {
        EXPECT_EQ(recovered[i].sequence, i + 1);
        EXPECT_EQ(recovered[i].record.book_id, 300 + i)
            << "recovery must only ever return a prefix of what was acked";
      }
    }
  }
}

// The same damage that recovery tolerates at the tail is a typed refusal
// when acked records come after it: corruption in a non-final segment
// means acked data is gone, and silently dropping it would break the
// durability contract.
TEST(WalTest, MidFileCorruptionInNonFinalSegmentIsDataLoss) {
  std::string dir = FreshDir("wal_midfile");
  std::vector<WalRecoveredRecord> recovered;
  {
    // segment_bytes below the minimum clamps to one-record segments.
    auto wal = OpenWal(dir, &recovered, /*segment_bytes=*/1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeReport(400 + i, "mid", "file", "x")).ok());
    }
  }
  auto segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 4u);
  std::string victim = segments[1];  // non-final, holds acked sequence 2
  std::string original = ReadFileBytes(victim);

  // Checksum damage: flip the record's digest byte.
  std::string mutated = original;
  mutated.back() = static_cast<char>(mutated.back() ^ 0x01);
  WriteFileBytes(victim, mutated);
  auto corrupt = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);

  // Truncation damage: the segment lost its tail but is not the final one.
  WriteFileBytes(victim, original.substr(0, original.size() / 2));
  auto truncated = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);

  // A torn header before the final segment is equally refused.
  WriteFileBytes(victim, original.substr(0, 10));
  auto torn_header = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_FALSE(torn_header.ok());
  EXPECT_EQ(torn_header.status().code(), StatusCode::kDataLoss);

  // Restoring the bytes restores the log: nothing was mutated in place.
  WriteFileBytes(victim, original);
  auto healed = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(recovered.size(), 4u);
}

// A record whose digest is valid but whose append frame claims another
// wire version (here v3) was not written by this binary's dialect: replay
// refuses it typed, like any other undecodable frame, and never crashes.
TEST(WalTest, ForeignWireVersionReplaysAsDataLoss) {
  std::string dir = FreshDir("wal_foreign_version");
  std::vector<WalRecoveredRecord> recovered;
  {
    auto wal = OpenWal(dir, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE((*wal)->Append(MakeReport(500, "old", "dialect", "x")).ok());
  }
  auto segments = SegmentPaths(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string bytes = ReadFileBytes(segments[0]);
  constexpr size_t kRecord = 16;  // after the segment header
  uint32_t len = util::GetLe<uint32_t>(bytes.data() + kRecord);
  ASSERT_EQ(bytes.size(), kRecord + 4 + 8 + len + 8);
  bytes[kRecord + 12 + 2] = 3;  // the frame's version byte
  uint64_t digest =
      util::Fnv1aOf(std::string_view(bytes).substr(kRecord, 12 + len));
  std::string digest_bytes;
  util::PutLe<uint64_t>(&digest_bytes, digest);
  bytes.replace(kRecord + 12 + len, 8, digest_bytes);
  WriteFileBytes(segments[0], bytes);

  auto reopened = OpenWal(dir, &recovered);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
      << reopened.status().ToString();
}

// ---------------------------------------------------------------------------
// Rotation and retirement

TEST(WalTest, RotationAndRetireKeepUncoveredSuffix) {
  std::string dir = FreshDir("wal_retire");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  for (uint64_t i = 0; i < 10; ++i) {
    auto seq = (*wal)->Append(MakeReport(600 + i, "rot", "ate", "y"));
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(*seq, i + 1);
  }
  auto stats = (*wal)->stats();
  EXPECT_EQ(stats.segments, 10u);
  EXPECT_EQ(stats.rotations, 9u);

  // Retiring through sequence 5 (say, a snapshot covers 1..5) removes the
  // segments holding only covered records.
  ASSERT_TRUE((*wal)->Retire(5).ok());
  EXPECT_EQ((*wal)->stats().segments, 5u);
  EXPECT_EQ(SegmentPaths(dir).size(), 5u);
  wal->reset();

  auto reopened = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), 5u);
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].sequence, 6 + i);
    EXPECT_EQ(recovered[i].record.book_id, 605 + i);
  }
  auto seq = (*reopened)->Append(MakeReport(610, "post", "retire", "z"));
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 11u);

  // Retiring past the end keeps the newest segment: it carries the
  // sequence counter across restarts.
  ASSERT_TRUE((*reopened)->Retire(100).ok());
  EXPECT_EQ((*reopened)->stats().segments, 1u);
  reopened->reset();
  auto once_more = OpenWal(dir, &recovered, /*segment_bytes=*/1);
  ASSERT_TRUE(once_more.ok()) << once_more.status().ToString();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.front().sequence, 11u);
  EXPECT_EQ(recovered.front().record.book_id, 610u);
}

// ---------------------------------------------------------------------------
// Fault injection: the disk always equals the acked records

// Probabilistic chaos at serve.wal.append and serve.wal.fsync: whatever
// mix of appends fail, the bytes on disk after a restart are EXACTLY the
// acked records — a failed append never resurfaces, an acked one never
// disappears, and sequences stay contiguous because failed appends give
// their sequence back.
TEST(WalTest, AppendFaultChaosKeepsDiskEqualToAcks) {
  std::string dir = FreshDir("wal_chaos");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  std::vector<uint64_t> acked_books;
  size_t failures = 0;
  {
    FaultConfig config;
    config.seed = 29;
    config.io_error_probability = 0.2;
    config.short_read_probability = 0.1;
    ScopedFaultInjection arm(config);
    for (uint64_t i = 0; i < 200; ++i) {
      auto seq = (*wal)->Append(MakeReport(2000 + i, "chaos", "run", "q"));
      if (seq.ok()) {
        EXPECT_EQ(*seq, acked_books.size() + 1)
            << "failed appends must give their sequence back";
        acked_books.push_back(2000 + i);
      } else {
        ++failures;
        EXPECT_TRUE(seq.status().code() == StatusCode::kUnavailable ||
                    seq.status().code() == StatusCode::kDataLoss)
            << seq.status().ToString();
      }
    }
    // The mix must have exercised both injection points, including the
    // group-commit fsync (reachable only when the append-point roll
    // spares the record).
    EXPECT_GT(FaultInjector::Global().injections(FaultPoint::kWalAppend), 0u);
    EXPECT_GT(FaultInjector::Global().injections(FaultPoint::kWalFsync), 0u);
  }
  ASSERT_GT(failures, 0u);
  ASSERT_GT(acked_books.size(), 0u);
  EXPECT_EQ((*wal)->durable_sequence(), acked_books.size());
  wal->reset();

  auto reopened = OpenWal(dir, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), acked_books.size());
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].sequence, i + 1);
    EXPECT_EQ(recovered[i].record.book_id, acked_books[i]);
  }
}

TEST(WalTest, ReplayFaultSurfacesTyped) {
  std::string dir = FreshDir("wal_replay_fault");
  std::vector<WalRecoveredRecord> recovered;
  {
    auto wal = OpenWal(dir, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeReport(100 + i, "re", "play", "w")).ok());
    }
  }
  {
    FaultConfig config;
    config.seed = 7;
    config.io_error_probability = 1.0;
    config.max_injections = 1;
    ScopedFaultInjection arm(config);
    auto failed = OpenWal(dir, &recovered);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
    EXPECT_GT(FaultInjector::Global().injections(FaultPoint::kWalReplay), 0u);
  }
  // The failure was the read path, not the bytes: a clean retry recovers.
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(recovered.size(), 3u);
}

// ---------------------------------------------------------------------------
// WAL-backed LiveIndexBuilder: durable acks and deterministic replay

struct LiveServing {
  std::shared_ptr<ResolutionService> service;
  std::shared_ptr<LiveIndexBuilder> builder;
};

LiveServing MakeWalServing(WriteAheadLog* wal, IngestOptions options = {}) {
  options.wal = wal;
  data::Dataset seed = MakeSeedCorpus();
  options.wal_base_records = seed.size();
  auto resolver = std::make_unique<core::IncrementalResolver>(
      seed, core::RankedResolution(), ml::AdTree());
  auto index = std::make_shared<const ResolutionIndex>(
      core::RankedResolution(), seed.size());
  auto service = std::make_shared<ResolutionService>(index);
  auto builder = std::make_shared<LiveIndexBuilder>(
      service, std::move(resolver), options);
  return {std::move(service), std::move(builder)};
}

// The acceptance invariant of DESIGN.md §14: under fault chaos across the
// append path, (a) every acked Submit survives the restart and nothing
// else does, and (b) replaying the WAL through a fresh resolver rebuilds
// an index with the exact checksum the live service was serving — the
// recovered index is a pure function of (seed corpus, acked prefix).
TEST(WalIngestTest, AckedRecordsSurviveAndReplayDeterministically) {
  std::string dir = FreshDir("wal_ingest_chaos");
  std::vector<WalRecoveredRecord> recovered;
  auto wal = OpenWal(dir, &recovered);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  std::vector<std::pair<data::RecordIdx, uint64_t>> acked;  // (idx, book_id)
  uint64_t served_checksum = 0;
  {
    LiveServing live = MakeWalServing(wal->get());
    EXPECT_TRUE(live.builder->durable());
    {
      FaultConfig config;
      config.seed = 41;
      config.io_error_probability = 0.25;
      ScopedFaultInjection arm(config);
      for (uint64_t i = 0; i < 120; ++i) {
        auto idx = live.builder->Submit(
            MakeReport(3000 + i, "golda" + std::to_string(i % 7), "meir",
                       i % 2 ? "kiev" : "pinsk"));
        if (idx.ok()) acked.emplace_back(*idx, 3000 + i);
      }
    }
    ASSERT_GT(acked.size(), 0u);
    ASSERT_LT(acked.size(), 120u) << "chaos run unexpectedly fault-free";
    // Corpus indices are contiguous from the seed: a failed Submit takes
    // no slot (its WAL sequence was given back, so the wire-visible
    // idx<->sequence correspondence never drifts).
    for (size_t i = 0; i < acked.size(); ++i) {
      EXPECT_EQ(acked[i].first, 4 + i);
      EXPECT_EQ(live.builder->WalSequenceFor(acked[i].first), i + 1);
    }
    ASSERT_TRUE(live.builder->WaitForIdle().ok());
    served_checksum = live.service->PinIndex()->Checksum();
    live.builder->Stop();
  }
  EXPECT_EQ((*wal)->durable_sequence(), acked.size());
  wal->reset();

  // Restart: recovery returns exactly the acked records, in ack order.
  auto reopened = OpenWal(dir, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovered.size(), acked.size());
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].sequence, i + 1);
    EXPECT_EQ(recovered[i].record.book_id, acked[i].second);
  }

  // Replay through a fresh resolver reproduces the served index bit for
  // bit.
  auto resolver = std::make_unique<core::IncrementalResolver>(
      MakeSeedCorpus(), core::RankedResolution(), ml::AdTree());
  for (const auto& rec : recovered) resolver->AddRecord(rec.record);
  ResolutionIndex rebuilt(resolver->Resolution(), resolver->dataset().size());
  EXPECT_EQ(rebuilt.num_records(), 4 + acked.size());
  EXPECT_EQ(rebuilt.Checksum(), served_checksum)
      << "replayed index diverged from the one served before the restart";
}

// Snapshots bound replay: every snapshot_every applied records the
// builder persists the appended suffix crash-atomically and retires the
// covered WAL segments. Both the first start and the restart open the
// directory through OpenDurableIngest, exactly as `yver_cli serve --live
// --wal-dir` does: a restart loads the snapshot, skips the covered
// sequences, and replays only the suffix — landing on the same index. The
// second case restarts a log that was never snapshotted: every record
// comes back from the log.
TEST(WalIngestTest, SnapshotRetiresSegmentsAndRestartReplays) {
  struct Case {
    const char* dir;
    size_t snapshot_every;
    size_t from_snapshot;
    size_t from_log;
  };
  const Case cases[] = {
      {"wal_ingest_snapshot", 8, 16, 4},  // two snapshots of 8 appends each
      {"wal_ingest_no_snapshot", 0, 0, 20},
  };
  WalOptions wal_options;
  wal_options.segment_bytes = 1;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.dir);
    std::string dir = FreshDir(c.dir);
    std::string snapshot_path;
    uint64_t served_checksum = 0;
    {
      auto resolver = std::make_unique<core::IncrementalResolver>(
          MakeSeedCorpus(), core::RankedResolution(), ml::AdTree());
      IngestOptions options;
      options.snapshot_every = c.snapshot_every;
      auto durable =
          OpenDurableIngest(dir, wal_options, resolver.get(), &options);
      ASSERT_TRUE(durable.ok()) << durable.status().ToString();
      EXPECT_EQ(durable->from_snapshot + durable->from_log, 0u);
      EXPECT_EQ(options.wal, durable->wal.get());
      EXPECT_EQ(options.wal_base_records, 4u);
      snapshot_path = options.snapshot_path;
      auto service = std::make_shared<ResolutionService>(
          std::make_shared<const ResolutionIndex>(core::RankedResolution(),
                                                  4));
      LiveIndexBuilder builder(service, std::move(resolver), options);
      for (uint64_t i = 0; i < 20; ++i) {
        auto idx = builder.Submit(MakeReport(
            5000 + i, "snap" + std::to_string(i), "shot", "lublin"));
        ASSERT_TRUE(idx.ok()) << idx.status().ToString();
        EXPECT_EQ(*idx, 4 + i);
      }
      ASSERT_TRUE(builder.WaitForIdle().ok());
      auto stats = builder.stats();
      EXPECT_EQ(stats.applied, 20u);
      EXPECT_EQ(stats.snapshots, c.from_snapshot / 8);
      EXPECT_EQ(stats.snapshot_failures, 0u);
      served_checksum = service->PinIndex()->Checksum();
      builder.Stop();
      if (c.snapshot_every > 0) {
        // The snapshot exists and the segments it covers are gone (20
        // one-record segments were written; at most the post-snapshot
        // suffix plus the always-kept newest segment remain).
        EXPECT_EQ(::access(snapshot_path.c_str(), F_OK), 0);
        EXPECT_LE(durable->wal->stats().segments, 6u);
      } else {
        EXPECT_NE(::access(snapshot_path.c_str(), F_OK), 0);
      }
    }

    auto resolver = std::make_unique<core::IncrementalResolver>(
        MakeSeedCorpus(), core::RankedResolution(), ml::AdTree());
    IngestOptions options;
    auto durable =
        OpenDurableIngest(dir, wal_options, resolver.get(), &options);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    EXPECT_EQ(durable->from_snapshot, c.from_snapshot);
    EXPECT_EQ(durable->from_log, c.from_log);
    EXPECT_EQ(options.snapshot_path, snapshot_path);
    ASSERT_EQ(resolver->dataset().size(), 24u);
    ResolutionIndex rebuilt(resolver->Resolution(),
                            resolver->dataset().size());
    EXPECT_EQ(rebuilt.Checksum(), served_checksum)
        << "snapshot + suffix replay diverged from the served index";
  }
}

}  // namespace
}  // namespace yver::serve
