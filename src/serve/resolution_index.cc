#include "serve/resolution_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "util/atomic_io.h"
#include "util/byte_codec.h"
#include "util/check.h"
#include "util/fault_injector.h"

namespace yver::serve {

namespace {

// Artifact layout (no padding; integers little-endian and doubles as
// IEEE-754 bit patterns, both packed by util/byte_codec.h):
//   8 bytes  magic "YVERIDX1"
//   u64      num_records
//   u64      num_matches
//   repeated u32 a, u32 b, f64 confidence, f64 block_score
//   u64      FNV-1a digest of everything between the magic and the digest
constexpr char kMagic[8] = {'Y', 'V', 'E', 'R', 'I', 'D', 'X', '1'};
constexpr size_t kMatchBytes = 4 + 4 + 8 + 8;

// The artifact body, field by field in file order. Checksum, Save and Load
// all go through these two walks, so they cannot disagree on the layout.
// `io` is handed each field by reference and returns false to stop the
// walk (a short read); a writer always returns true.
template <typename Io>
bool WalkCounts(Io& io, uint64_t& num_records, uint64_t& num_matches) {
  return io(num_records) && io(num_matches);
}

template <typename Io, typename Match>
bool WalkMatch(Io& io, Match& m) {
  return io(m.pair.a) && io(m.pair.b) && io(m.confidence) &&
         io(m.block_score);
}

/// Puts the body of an index with `num_records` records and `arena` into
/// `sink`: a byte buffer for Save, a streaming Fnv1a for Checksum.
template <typename Sink>
void PutBody(uint64_t num_records, const std::vector<core::RankedMatch>& arena,
             Sink* sink) {
  auto put = [sink](const auto& v) {
    util::PutLe(sink, v);
    return true;
  };
  uint64_t num_matches = arena.size();
  WalkCounts(put, num_records, num_matches);
  for (const core::RankedMatch& m : arena) WalkMatch(put, m);
}

}  // namespace

ResolutionIndex::ResolutionIndex(const core::RankedResolution& resolution,
                                 size_t num_records)
    : num_records_(num_records),
      arena_(resolution.matches()),
      adjacency_(arena_, num_records) {
  for (const auto& m : arena_) {
    YVER_CHECK_MSG(m.pair.b < num_records,
                   "match references record beyond the corpus");
  }
}

util::StatusOr<ResolutionIndex> ResolutionIndex::Build(
    const core::RankedResolution& resolution, size_t num_records) {
  for (const auto& m : resolution.matches()) {
    if (m.pair.b >= num_records) {
      return util::Status::DataLoss(
          "match (" + std::to_string(m.pair.a) + ", " +
          std::to_string(m.pair.b) + ") references a record beyond the " +
          std::to_string(num_records) + "-record corpus");
    }
  }
  return ResolutionIndex(resolution, num_records);
}

std::vector<core::RankedMatch> ResolutionIndex::ForRecord(data::RecordIdx r,
                                                          double certainty,
                                                          size_t k) const {
  std::vector<core::RankedMatch> out;
  auto neighbors = adjacency_.Neighbors(r);
  if (neighbors.empty()) return out;
  out.reserve(std::min<size_t>(k == 0 ? 8 : k, neighbors.size()));
  for (uint32_t idx : neighbors) {
    const core::RankedMatch& m = arena_[idx];
    if (!(m.confidence > certainty)) break;  // confidence-descending
    out.push_back(m);
    if (k != 0 && out.size() == k) break;
  }
  return out;
}

size_t ResolutionIndex::CountAbove(double certainty) const {
  auto it = std::partition_point(arena_.begin(), arena_.end(),
                                 [certainty](const core::RankedMatch& m) {
                                   return m.confidence > certainty;
                                 });
  return static_cast<size_t>(it - arena_.begin());
}

std::vector<core::RankedMatch> ResolutionIndex::AboveThreshold(
    double certainty) const {
  size_t n = CountAbove(certainty);
  return std::vector<core::RankedMatch>(arena_.begin(), arena_.begin() + n);
}

std::vector<core::RankedMatch> ResolutionIndex::TopK(size_t k) const {
  k = std::min(k, arena_.size());
  return std::vector<core::RankedMatch>(arena_.begin(), arena_.begin() + k);
}

core::EntityClusters ResolutionIndex::ClustersAt(double certainty) const {
  return core::EntityClusters(arena_, num_records_, certainty);
}

uint64_t ResolutionIndex::Checksum() const {
  // Streams the body into the hash without building it: the server calls
  // this on every info request.
  util::Fnv1a fnv;
  PutBody(num_records_, arena_, &fnv);
  return fnv.digest();
}

util::Status ResolutionIndex::Save(const std::string& path) const {
  // Crash-atomic: serialize in memory, write to path.tmp, fsync, then
  // rename over the destination (DESIGN.md §14). A crash — or an injected
  // serve.index.save fault — anywhere in here leaves whatever artifact
  // stood at `path` fully intact; a torn .yvx can never replace a good
  // one.
  util::Status injected =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kIndexSave);
  if (!injected.ok()) return injected;
  std::string bytes;
  bytes.reserve(sizeof(kMagic) + 16 + arena_.size() * kMatchBytes + 8);
  bytes.append(kMagic, sizeof(kMagic));
  PutBody(num_records_, arena_, &bytes);
  uint64_t digest =
      util::Fnv1aOf(std::string_view(bytes).substr(sizeof(kMagic)));
  util::PutLe<uint64_t>(&bytes, digest);
  return util::WriteFileAtomic(path, bytes);
}

util::StatusOr<ResolutionIndex> ResolutionIndex::Load(
    const std::string& path, std::optional<size_t> corpus_records) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return util::Status::NotFound("cannot read " + path);
  util::Status injected =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kIndexLoadOpen);
  if (!injected.ok()) return injected;
  std::ostringstream contents;
  contents << f.rdbuf();
  std::string bytes = std::move(contents).str();
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return util::Status::DataLoss(path + ": not a YVERIDX1 artifact");
  }
  std::string_view body = std::string_view(bytes).substr(sizeof(kMagic));
  util::ByteReader r(body);
  auto get = [&r](auto& v) { return r.Read(&v); };
  uint64_t num_records = 0, num_matches = 0;
  if (!WalkCounts(get, num_records, num_matches)) {
    return util::Status::DataLoss(path + ": truncated header");
  }
  // Every record must be addressable by a RecordIdx; a larger count would
  // also size the adjacency's offset table past anything allocatable.
  if (num_records > std::numeric_limits<data::RecordIdx>::max()) {
    return util::Status::DataLoss(path + ": record count " +
                                  std::to_string(num_records) +
                                  " exceeds the record index range");
  }
  if (corpus_records.has_value() && num_records != *corpus_records) {
    return util::Status::DataLoss(
        path + ": index covers " + std::to_string(num_records) +
        " records but the corpus has " + std::to_string(*corpus_records));
  }
  ResolutionIndex index;
  index.num_records_ = static_cast<size_t>(num_records);
  // The file bounds how many matches can really follow; never trust the
  // declared count for the allocation.
  index.arena_.reserve(static_cast<size_t>(
      std::min<uint64_t>(num_matches, r.remaining() / kMatchBytes)));
  double prev_confidence = std::numeric_limits<double>::infinity();
  for (uint64_t i = 0; i < num_matches; ++i) {
    injected = util::FaultInjector::Global().InjectIo(
        util::FaultPoint::kIndexLoadRead);
    if (!injected.ok()) return injected;
    core::RankedMatch m;
    if (!WalkMatch(get, m)) {
      return util::Status::DataLoss(path + ": truncated match arena");
    }
    if (m.pair.a >= m.pair.b || m.pair.b >= num_records) {
      return util::Status::DataLoss(path + ": malformed record pair");
    }
    if (std::isnan(m.confidence) || m.confidence > prev_confidence) {
      return util::Status::DataLoss(path + ": arena not confidence-sorted");
    }
    prev_confidence = m.confidence;
    index.arena_.push_back(m);
  }
  uint64_t expected = util::Fnv1aOf(body.substr(0, r.position()));
  uint64_t stored = 0;
  if (!r.Read(&stored) || stored != expected) {
    return util::Status::DataLoss(path + ": checksum mismatch");
  }
  index.adjacency_ = core::MatchAdjacency(index.arena_, index.num_records_);
  return index;
}

util::StatusOr<ResolutionIndex> ResolutionIndex::LoadWithRetry(
    const std::string& path, const util::RetryPolicy& policy,
    util::RetryStats* stats, const util::Deadline& deadline,
    std::optional<size_t> corpus_records) {
  return util::RetryWithPolicy(
      policy, [&] { return Load(path, corpus_records); }, stats, deadline);
}

}  // namespace yver::serve
