#include "serve/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/byte_codec.h"

namespace yver::serve::wire {

namespace {

using util::PutLe;

util::Status Truncated(const char* what) {
  return util::Status::DataLoss(std::string("truncated ") + what +
                                " payload");
}

util::Status TrailingBytes(const char* what) {
  return util::Status::DataLoss(std::string(what) +
                                " payload has trailing bytes");
}

/// StatusCode <-> wire byte. The wire values are frozen independently of
/// the enum so reordering StatusCode can never silently change captures.
uint8_t StatusCodeToWire(util::StatusCode code) {
  switch (code) {
    case util::StatusCode::kOk: return 0;
    case util::StatusCode::kInvalidArgument: return 1;
    case util::StatusCode::kNotFound: return 2;
    case util::StatusCode::kOutOfRange: return 3;
    case util::StatusCode::kDataLoss: return 4;
    case util::StatusCode::kInternal: return 5;
    case util::StatusCode::kDeadlineExceeded: return 6;
    case util::StatusCode::kResourceExhausted: return 7;
    case util::StatusCode::kUnavailable: return 8;
  }
  return 5;  // unreachable; map to kInternal
}

bool StatusCodeFromWire(uint8_t byte, util::StatusCode* code) {
  switch (byte) {
    case 0: *code = util::StatusCode::kOk; return true;
    case 1: *code = util::StatusCode::kInvalidArgument; return true;
    case 2: *code = util::StatusCode::kNotFound; return true;
    case 3: *code = util::StatusCode::kOutOfRange; return true;
    case 4: *code = util::StatusCode::kDataLoss; return true;
    case 5: *code = util::StatusCode::kInternal; return true;
    case 6: *code = util::StatusCode::kDeadlineExceeded; return true;
    case 7: *code = util::StatusCode::kResourceExhausted; return true;
    case 8: *code = util::StatusCode::kUnavailable; return true;
    default: return false;
  }
}

bool KnownFrameType(uint8_t byte) {
  return byte >= static_cast<uint8_t>(FrameType::kQuery) &&
         byte <= static_cast<uint8_t>(FrameType::kAppendAck);
}

bool KnownGranularity(uint8_t byte) {
  return byte <= static_cast<uint8_t>(Granularity::kEntity);
}

void PutQueryEcho(std::string* out, const Query& query) {
  PutLe<uint32_t>(out, query.record);
  PutLe<double>(out, query.certainty);
  PutLe<uint64_t>(out, query.k);
  PutLe<uint8_t>(out, static_cast<uint8_t>(query.granularity));
}

/// Reads a query echo. `*granularity` receives the raw byte for the
/// caller to validate; query->granularity is set only when it is known.
bool ReadQueryEcho(util::ByteReader* r, Query* query, uint8_t* granularity) {
  uint64_t k = 0;
  if (!r->Read(&query->record) || !r->Read(&query->certainty) ||
      !r->Read(&k) || !r->Read(granularity)) {
    return false;
  }
  query->k = static_cast<size_t>(k);
  if (KnownGranularity(*granularity)) {
    query->granularity = static_cast<Granularity>(*granularity);
  }
  return true;
}

}  // namespace

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  out->reserve(out->size() + kHeaderSize + payload.size());
  PutLe<uint8_t>(out, kMagic0);
  PutLe<uint8_t>(out, kMagic1);
  PutLe<uint8_t>(out, kVersion);
  PutLe<uint8_t>(out, static_cast<uint8_t>(type));
  PutLe<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

util::StatusOr<size_t> PeekFrameHeader(std::string_view buffer,
                                       FrameHeader* header) {
  if (buffer.size() < kHeaderSize) return size_t{0};
  const auto* p = reinterpret_cast<const uint8_t*>(buffer.data());
  if (p[0] != kMagic0 || p[1] != kMagic1) {
    return util::Status::DataLoss("bad frame magic");
  }
  if (p[2] != kVersion) {
    return util::Status::InvalidArgument(
        "unsupported wire version " + std::to_string(p[2]) +
        " (this binary speaks only version " + std::to_string(kVersion) +
        ")");
  }
  if (!KnownFrameType(p[3])) {
    return util::Status::InvalidArgument("unknown frame type " +
                                         std::to_string(p[3]));
  }
  uint32_t length = util::GetLe<uint32_t>(buffer.data() + 4);
  if (length > kMaxFramePayload) {
    return util::Status::DataLoss("frame payload length " +
                                  std::to_string(length) +
                                  " exceeds the protocol maximum");
  }
  header->type = static_cast<FrameType>(p[3]);
  header->payload_length = length;
  return kHeaderSize;
}

util::StatusOr<size_t> ExtractFrame(std::string_view buffer, Frame* frame) {
  FrameHeader header;
  auto peeked = PeekFrameHeader(buffer, &header);
  if (!peeked.ok()) return peeked.status();
  if (*peeked == 0) return size_t{0};
  if (buffer.size() < kHeaderSize + header.payload_length) return size_t{0};
  frame->type = header.type;
  frame->payload.assign(buffer.data() + kHeaderSize, header.payload_length);
  return kHeaderSize + header.payload_length;
}

// ---------------------------------------------------------------------------
// Query

void EncodeQuery(const Query& query, double deadline_ms, std::string* out) {
  std::string payload;
  payload.reserve(29);
  PutQueryEcho(&payload, query);
  PutLe<double>(&payload, deadline_ms);
  AppendFrame(FrameType::kQuery, payload, out);
}

util::StatusOr<DecodedQuery> DecodeQuery(const Frame& frame) {
  if (frame.type != FrameType::kQuery) {
    return util::Status::InvalidArgument("not a query frame");
  }
  util::ByteReader r(frame.payload);
  DecodedQuery decoded;
  uint8_t granularity = 0;
  if (!ReadQueryEcho(&r, &decoded.query, &granularity) ||
      !r.Read(&decoded.deadline_ms)) {
    return Truncated("query");
  }
  if (!r.Done()) return TrailingBytes("query");
  if (!KnownGranularity(granularity)) {
    return util::Status::InvalidArgument("unknown granularity " +
                                         std::to_string(granularity));
  }
  if (std::isnan(decoded.deadline_ms)) {
    return util::Status::InvalidArgument("query deadline is NaN");
  }
  // All-zero bits (= +0.0) is the "no deadline" sentinel; anything else is
  // a relative budget whose clock starts now, at decode time.
  if (std::bit_cast<uint64_t>(decoded.deadline_ms) != 0) {
    decoded.query.deadline = util::Deadline::AfterMillis(decoded.deadline_ms);
  }
  return decoded;
}

// ---------------------------------------------------------------------------
// Result / error

void EncodeResult(const util::StatusOr<QueryResult>& result,
                  std::string* out) {
  std::string payload;
  if (!result.ok()) {
    const util::Status& status = result.status();
    payload.reserve(3 + status.message().size());
    PutLe<uint8_t>(&payload, StatusCodeToWire(status.code()));
    size_t len = std::min<size_t>(status.message().size(), 0xffff);
    PutLe<uint16_t>(&payload, static_cast<uint16_t>(len));
    payload.append(status.message(), 0, len);
    AppendFrame(FrameType::kError, payload, out);
    return;
  }
  const QueryResult& r = *result;
  payload.reserve(22 + 8 + r.matches.size() * 24 + r.entity.size() * 4);
  uint8_t flags = r.degraded ? 1 : 0;
  PutLe<uint8_t>(&payload, flags);
  PutQueryEcho(&payload, r.query);
  PutLe<uint32_t>(&payload, static_cast<uint32_t>(r.matches.size()));
  for (const core::RankedMatch& m : r.matches) {
    PutLe<uint32_t>(&payload, m.pair.a);
    PutLe<uint32_t>(&payload, m.pair.b);
    PutLe<double>(&payload, m.confidence);
    PutLe<double>(&payload, m.block_score);
  }
  PutLe<uint32_t>(&payload, static_cast<uint32_t>(r.entity.size()));
  for (data::RecordIdx member : r.entity) PutLe<uint32_t>(&payload, member);
  PutLe<uint64_t>(&payload, r.generation);  // which snapshot answered
  AppendFrame(FrameType::kResult, payload, out);
}

util::StatusOr<QueryResult> DecodeResult(const Frame& frame) {
  if (frame.type == FrameType::kError) {
    util::ByteReader r(frame.payload);
    uint8_t code_byte = 0;
    uint16_t len = 0;
    std::string message;
    if (!r.Read(&code_byte) || !r.Read(&len) ||
        !r.ReadBytes(&message, len)) {
      return Truncated("error");
    }
    if (!r.Done()) return TrailingBytes("error");
    util::StatusCode code;
    if (!StatusCodeFromWire(code_byte, &code) ||
        code == util::StatusCode::kOk) {
      return util::Status::InvalidArgument("unknown status code " +
                                           std::to_string(code_byte) +
                                           " in error frame");
    }
    return util::Status(code, std::move(message));
  }
  if (frame.type != FrameType::kResult) {
    return util::Status::InvalidArgument("not a result frame");
  }
  util::ByteReader r(frame.payload);
  QueryResult result;
  uint8_t flags = 0;
  uint8_t granularity = 0;
  if (!r.Read(&flags) || !ReadQueryEcho(&r, &result.query, &granularity)) {
    return Truncated("result");
  }
  if (!KnownGranularity(granularity)) {
    return util::Status::InvalidArgument(
        "unknown granularity in result echo");
  }
  if ((flags & ~uint8_t{1}) != 0) {
    return util::Status::InvalidArgument("unknown result flags");
  }
  result.degraded = (flags & 1) != 0;
  uint32_t match_count = 0;
  if (!r.Read(&match_count)) return Truncated("result");
  if (r.remaining() < static_cast<size_t>(match_count) * 24) {
    return Truncated("result match list");
  }
  result.matches.reserve(match_count);
  for (uint32_t i = 0; i < match_count; ++i) {
    core::RankedMatch m;
    // RecordPair's ctor canonicalizes a <= b; read into locals so an
    // arbitrary (a, b) on the wire round-trips through the same ctor the
    // in-process path used.
    uint32_t a = 0, b = 0;
    if (!r.Read(&a) || !r.Read(&b) || !r.Read(&m.confidence) ||
        !r.Read(&m.block_score)) {
      return Truncated("result match list");
    }
    m.pair = data::RecordPair(a, b);
    result.matches.push_back(m);
  }
  uint32_t entity_count = 0;
  if (!r.Read(&entity_count)) return Truncated("result");
  if (r.remaining() < static_cast<size_t>(entity_count) * 4) {
    return Truncated("result entity list");
  }
  result.entity.reserve(entity_count);
  for (uint32_t i = 0; i < entity_count; ++i) {
    uint32_t member = 0;
    if (!r.Read(&member)) return Truncated("result entity list");
    result.entity.push_back(member);
  }
  if (!r.Read(&result.generation)) return Truncated("result");
  if (!r.Done()) return TrailingBytes("result");
  return result;
}

// ---------------------------------------------------------------------------
// Server info

void EncodeInfoRequest(std::string* out) {
  AppendFrame(FrameType::kInfoRequest, {}, out);
}

void EncodeInfo(const ServerInfo& info, std::string* out) {
  std::string payload;
  payload.reserve(3 * 8 + 10 * 8 + 4 + kServiceLatencyBuckets * 8);
  PutLe<uint64_t>(&payload, info.num_records);
  PutLe<uint64_t>(&payload, info.num_matches);
  PutLe<uint64_t>(&payload, info.checksum);
  PutLe<uint64_t>(&payload, info.metrics.queries);
  PutLe<uint64_t>(&payload, info.metrics.errors);
  PutLe<uint64_t>(&payload, info.metrics.cache_hits);
  PutLe<uint64_t>(&payload, info.metrics.cache_misses);
  PutLe<uint64_t>(&payload, info.metrics.shed);
  PutLe<uint64_t>(&payload, info.metrics.deadline_exceeded);
  PutLe<uint64_t>(&payload, info.metrics.degraded);
  PutLe<double>(&payload, info.metrics.total_latency_ms);
  PutLe<uint32_t>(&payload, static_cast<uint32_t>(
                       info.metrics.latency_histogram_ns.size()));
  for (uint64_t bucket : info.metrics.latency_histogram_ns) {
    PutLe<uint64_t>(&payload, bucket);
  }
  // Live-index gauges, then the staleness-bound eviction counter, then
  // the connection-lifecycle gauges (DESIGN.md §15).
  PutLe<uint64_t>(&payload, info.metrics.generation);
  PutLe<uint64_t>(&payload, info.metrics.publishes);
  PutLe<uint64_t>(&payload, info.metrics.pinned_readers);
  PutLe<uint64_t>(&payload, info.metrics.evicted_stale);
  PutLe<uint64_t>(&payload, info.net.open_connections);
  PutLe<uint64_t>(&payload, info.net.paused_reads);
  PutLe<uint64_t>(&payload, info.net.disconnects_idle);
  PutLe<uint64_t>(&payload, info.net.disconnects_slowloris);
  PutLe<uint64_t>(&payload, info.net.disconnects_oversize);
  PutLe<uint64_t>(&payload, info.net.disconnects_rate_limited);
  PutLe<uint64_t>(&payload, info.net.disconnects_write_stall);
  PutLe<uint64_t>(&payload, info.net.rate_limited_frames);
  AppendFrame(FrameType::kInfo, payload, out);
}

util::StatusOr<ServerInfo> DecodeInfo(const Frame& frame) {
  if (frame.type != FrameType::kInfo) {
    return util::Status::InvalidArgument("not an info frame");
  }
  util::ByteReader r(frame.payload);
  ServerInfo info;
  uint32_t buckets = 0;
  if (!r.Read(&info.num_records) || !r.Read(&info.num_matches) ||
      !r.Read(&info.checksum) || !r.Read(&info.metrics.queries) ||
      !r.Read(&info.metrics.errors) ||
      !r.Read(&info.metrics.cache_hits) ||
      !r.Read(&info.metrics.cache_misses) ||
      !r.Read(&info.metrics.shed) ||
      !r.Read(&info.metrics.deadline_exceeded) ||
      !r.Read(&info.metrics.degraded) ||
      !r.Read(&info.metrics.total_latency_ms) || !r.Read(&buckets)) {
    return Truncated("info");
  }
  if (buckets > 1024 || r.remaining() < static_cast<size_t>(buckets) * 8) {
    return Truncated("info histogram");
  }
  info.metrics.latency_histogram_ns.reserve(buckets);
  for (uint32_t i = 0; i < buckets; ++i) {
    uint64_t bucket = 0;
    if (!r.Read(&bucket)) return Truncated("info histogram");
    info.metrics.latency_histogram_ns.push_back(bucket);
  }
  if (!r.Read(&info.metrics.generation) ||
      !r.Read(&info.metrics.publishes) ||
      !r.Read(&info.metrics.pinned_readers) ||
      !r.Read(&info.metrics.evicted_stale) ||
      !r.Read(&info.net.open_connections) ||
      !r.Read(&info.net.paused_reads) ||
      !r.Read(&info.net.disconnects_idle) ||
      !r.Read(&info.net.disconnects_slowloris) ||
      !r.Read(&info.net.disconnects_oversize) ||
      !r.Read(&info.net.disconnects_rate_limited) ||
      !r.Read(&info.net.disconnects_write_stall) ||
      !r.Read(&info.net.rate_limited_frames)) {
    return Truncated("info");
  }
  if (!r.Done()) return TrailingBytes("info");
  return info;
}

// ---------------------------------------------------------------------------
// Live ingest

void EncodeAppend(const data::Record& record, std::string* out) {
  std::string payload;
  payload.reserve(31 + record.entries().size() * 12);
  PutLe<uint64_t>(&payload, record.book_id);
  PutLe<uint32_t>(&payload, record.source_id);
  PutLe<uint8_t>(&payload, static_cast<uint8_t>(record.source_kind));
  PutLe<uint64_t>(&payload, std::bit_cast<uint64_t>(record.entity_id));
  PutLe<uint64_t>(&payload, std::bit_cast<uint64_t>(record.family_id));
  PutLe<uint16_t>(&payload, static_cast<uint16_t>(
                       std::min<size_t>(record.entries().size(), 0xffff)));
  size_t n = std::min<size_t>(record.entries().size(), 0xffff);
  for (size_t i = 0; i < n; ++i) {
    const data::Record::Entry& entry = record.entries()[i];
    PutLe<uint8_t>(&payload, static_cast<uint8_t>(entry.attr));
    size_t len = std::min<size_t>(entry.value.size(), 0xffff);
    PutLe<uint16_t>(&payload, static_cast<uint16_t>(len));
    payload.append(entry.value, 0, len);
  }
  AppendFrame(FrameType::kAppendRequest, payload, out);
}

util::StatusOr<data::Record> DecodeAppend(const Frame& frame) {
  if (frame.type != FrameType::kAppendRequest) {
    return util::Status::InvalidArgument("not an append frame");
  }
  util::ByteReader r(frame.payload);
  data::Record record;
  uint8_t source_kind = 0;
  uint64_t entity_bits = 0;
  uint64_t family_bits = 0;
  uint16_t num_entries = 0;
  if (!r.Read(&record.book_id) || !r.Read(&record.source_id) ||
      !r.Read(&source_kind) || !r.Read(&entity_bits) ||
      !r.Read(&family_bits) || !r.Read(&num_entries)) {
    return Truncated("append");
  }
  if (source_kind > static_cast<uint8_t>(data::SourceKind::kVictimList)) {
    return util::Status::InvalidArgument("unknown source kind " +
                                         std::to_string(source_kind));
  }
  record.source_kind = static_cast<data::SourceKind>(source_kind);
  record.entity_id = std::bit_cast<int64_t>(entity_bits);
  record.family_id = std::bit_cast<int64_t>(family_bits);
  for (uint16_t i = 0; i < num_entries; ++i) {
    uint8_t attr = 0;
    uint16_t len = 0;
    std::string value;
    if (!r.Read(&attr) || !r.Read(&len) || !r.ReadBytes(&value, len)) {
      return Truncated("append entry list");
    }
    if (attr >= data::kNumAttributes) {
      return util::Status::InvalidArgument("out-of-schema attribute " +
                                           std::to_string(attr));
    }
    // Record::Add drops empty values silently; that would make the decoded
    // record differ from the encoded one, so reject them typed instead.
    if (value.empty()) {
      return util::Status::InvalidArgument("empty attribute value");
    }
    record.Add(static_cast<data::AttributeId>(attr), std::move(value));
  }
  if (!r.Done()) return TrailingBytes("append");
  return record;
}

void EncodeAppendAck(const AppendAck& ack, std::string* out) {
  std::string payload;
  payload.reserve(25);
  PutLe<uint64_t>(&payload, ack.record_idx);
  PutLe<uint64_t>(&payload, ack.generation);
  PutLe<uint8_t>(&payload, ack.durable ? 1 : 0);
  PutLe<uint64_t>(&payload, ack.wal_sequence);
  AppendFrame(FrameType::kAppendAck, payload, out);
}

util::StatusOr<AppendAck> DecodeAppendAck(const Frame& frame) {
  if (frame.type != FrameType::kAppendAck) {
    return util::Status::InvalidArgument("not an append ack frame");
  }
  util::ByteReader r(frame.payload);
  AppendAck ack;
  uint8_t durable = 0;
  if (!r.Read(&ack.record_idx) || !r.Read(&ack.generation) ||
      !r.Read(&durable) || !r.Read(&ack.wal_sequence)) {
    return Truncated("append ack");
  }
  if (durable > 1) {
    return util::Status::InvalidArgument("unknown durable flag " +
                                         std::to_string(durable));
  }
  ack.durable = durable != 0;
  if (!r.Done()) return TrailingBytes("append ack");
  return ack;
}

}  // namespace yver::serve::wire
