// Byte pins for every format the serving stack writes: the `.yvx` index
// artifact, a WAL segment, and one frame of each wire frame type. The
// round-trip tests elsewhere would still pass if an encoder and its
// decoder drifted together; these cannot. Each expected value is the
// FNV-1a digest of the exact bytes written for a fixed input, so any
// change to a field order, width, byte order or checksum fails here.
//
// The digests are computed by a local FNV-1a below rather than the
// library's, so the oracle does not share code with what it checks. A
// deliberate format change must update a pin and say so in CHANGES.md.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/ranked_resolution.h"
#include "serve/resolution_index.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "util/status.h"

namespace yver::serve {
namespace {

uint64_t ReferenceFnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

core::RankedMatch Match(data::RecordIdx a, data::RecordIdx b,
                        double confidence, double block_score) {
  core::RankedMatch m;
  m.pair = data::RecordPair(a, b);
  m.confidence = confidence;
  m.block_score = block_score;
  return m;
}

Query PinQuery(data::RecordIdx record, double certainty, size_t k,
               Granularity granularity) {
  Query q;
  q.record = record;
  q.certainty = certainty;
  q.k = k;
  q.granularity = granularity;
  return q;
}

data::Record PinRecord(uint64_t book_id, const std::string& first,
                       const std::string& last) {
  data::Record r;
  r.book_id = book_id;
  r.source_id = static_cast<uint32_t>(book_id % 5);
  r.source_kind = data::SourceKind::kVictimList;
  r.entity_id = -3 - static_cast<int64_t>(book_id);
  r.family_id = static_cast<int64_t>(book_id) * 7;
  r.Add(data::AttributeId::kFirstName, first);
  r.Add(data::AttributeId::kLastName, last);
  r.Add(data::AttributeId::kBirthCity, "Lodz");
  return r;
}

TEST(FormatPinTest, IndexArtifactBytes) {
  core::RankedResolution resolution({
      Match(0, 3, 0.875, 2.5),
      Match(1, 2, 0.5, 1.0 / 3.0),
      Match(4, 9, 0.5, 7.0),
      Match(2, 8, 0.0625, -1.25),
  });
  ResolutionIndex index(resolution, 10);
  std::string path = testing::TempDir() + "/format_pin.yvx";
  ASSERT_TRUE(index.Save(path).ok());
  std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 8u + 16u + 4u * 24u + 8u);
  EXPECT_EQ(ReferenceFnv1a(bytes), 0x1be15d9f70e8a53eULL);
  EXPECT_EQ(index.Checksum(), 0x32e00da2f4f7b04fULL);
}

TEST(FormatPinTest, WalSegmentBytes) {
  std::string dir = testing::TempDir() + "/format_pin_wal";
  std::string segment = dir + "/wal-0000000000000001.yvw";
  std::remove(segment.c_str());
  ::rmdir(dir.c_str());
  {
    std::vector<WalRecoveredRecord> recovered;
    auto wal = WriteAheadLog::Open(dir, WalOptions{}, &recovered);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(recovered.empty());
    ASSERT_TRUE((*wal)->Append(PinRecord(1000001, "Chaim", "Rozen")).ok());
    ASSERT_TRUE((*wal)->Append(PinRecord(1000002, "Sara", "Gold")).ok());
    ASSERT_TRUE((*wal)->Append(PinRecord(1000003, "Icek", "Weiss")).ok());
  }
  std::string bytes = ReadFile(segment);
  std::remove(segment.c_str());
  ::rmdir(dir.c_str());
  EXPECT_EQ(bytes.size(), 259u);
  EXPECT_EQ(ReferenceFnv1a(bytes), 0x2460708ecb850646ULL);
}

TEST(FormatPinTest, OneFrameOfEachType) {
  std::string query;
  wire::EncodeQuery(PinQuery(7, 0.625, 3, Granularity::kEntity), 12.5,
                    &query);

  QueryResult answer;
  answer.query = PinQuery(3, 0.25, 0, Granularity::kMatches);
  answer.matches = {Match(3, 11, 0.75, 4.0), Match(0, 3, 0.5, 2.0)};
  answer.entity = {0, 3, 11};
  answer.degraded = true;
  answer.generation = 5;
  std::string result;
  wire::EncodeResult(answer, &result);

  std::string error;
  wire::EncodeResult(util::Status::ResourceExhausted("shed: queue full"),
                     &error);

  std::string info_request;
  wire::EncodeInfoRequest(&info_request);

  wire::ServerInfo server_info;
  server_info.num_records = 14000;
  server_info.num_matches = 5123;
  server_info.checksum = 0x0123456789abcdefULL;
  server_info.metrics.queries = 100;
  server_info.metrics.errors = 2;
  server_info.metrics.cache_hits = 60;
  server_info.metrics.cache_misses = 40;
  server_info.metrics.shed = 3;
  server_info.metrics.deadline_exceeded = 4;
  server_info.metrics.degraded = 1;
  server_info.metrics.generation = 6;
  server_info.metrics.publishes = 5;
  server_info.metrics.pinned_readers = 2;
  server_info.metrics.evicted_stale = 9;
  server_info.metrics.total_latency_ms = 12.75;
  for (size_t i = 0; i < kServiceLatencyBuckets; ++i) {
    server_info.metrics.latency_histogram_ns.push_back(i * 3);
  }
  server_info.net.open_connections = 4;
  server_info.net.paused_reads = 1;
  server_info.net.disconnects_idle = 2;
  server_info.net.disconnects_slowloris = 3;
  server_info.net.disconnects_oversize = 5;
  server_info.net.disconnects_rate_limited = 8;
  server_info.net.disconnects_write_stall = 13;
  server_info.net.rate_limited_frames = 21;
  std::string info;
  wire::EncodeInfo(server_info, &info);

  std::string append;
  wire::EncodeAppend(PinRecord(1000004, "Rywka", "Szapiro"), &append);

  std::string ack;
  wire::EncodeAppendAck(wire::AppendAck{4242, 9, true, 77}, &ack);

  const struct {
    const char* name;
    const std::string& bytes;
    size_t size;
    uint64_t digest;
  } kPins[] = {
      {"query", query, 37, 0x1ab037df9630d068ULL},
      {"result", result, 106, 0x7ca9f656785f2741ULL},
      {"error", error, 27, 0x919f9e55a30f5a44ULL},
      {"info-request", info_request, 8, 0xa9c44ecba7d99089ULL},
      {"info", info, 580, 0x2ed582ac8b909f3dULL},
      {"append", append, 64, 0x95f82aa6615b4526ULL},
      {"append-ack", ack, 33, 0xd7a590a3007df4f4ULL},
  };
  for (const auto& pin : kPins) {
    EXPECT_EQ(pin.bytes.size(), pin.size) << pin.name;
    EXPECT_EQ(ReferenceFnv1a(pin.bytes), pin.digest) << pin.name;
  }
}

}  // namespace
}  // namespace yver::serve
