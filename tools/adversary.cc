#include "adversary.h"

#include <sys/socket.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/net/client.h"
#include "serve/query.h"
#include "serve/wire.h"
#include "util/byte_codec.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "util/socket.h"

namespace yver::serve::net {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::steady_clock::duration MillisDuration(double ms) {
  return std::chrono::nanoseconds(static_cast<int64_t>(ms * 1e6));
}

/// One connection's view of the attack; summed into the report.
struct ConnOutcome {
  bool opened = false;
  uint64_t bytes_sent = 0;
  uint64_t frames_sent = 0;
  uint64_t responses_read = 0;
  uint64_t ok_responses = 0;
  uint64_t error_responses = 0;
  bool server_closed = false;
  bool clean_eof = false;
};

std::string RandomQueryFrame(util::Rng& rng) {
  Query query;
  query.record = static_cast<data::RecordIdx>(rng.UniformInt(0, 31));
  query.certainty = rng.UniformDouble();
  query.k = static_cast<size_t>(rng.UniformInt(1, 5));
  query.granularity =
      rng.Bernoulli(0.5) ? Granularity::kEntity : Granularity::kMatches;
  std::string bytes;
  wire::EncodeQuery(query, 0, &bytes);
  return bytes;
}

void BookResponse(const std::string& frame, ConnOutcome& out) {
  out.responses_read++;
  if (frame.size() > 3 &&
      static_cast<uint8_t>(frame[3]) ==
          static_cast<uint8_t>(wire::FrameType::kError)) {
    out.error_responses++;
  } else {
    out.ok_responses++;
  }
}

/// True when a read/write status says the server ended the connection.
bool IsServerClose(const util::Status& status) {
  return status.code() == util::StatusCode::kUnavailable;
}

/// A valid header declaring a 4 KiB query payload that will never fully
/// arrive — the classic slow-loris shape: always "almost" a frame.
std::string SlowlorisHeader() {
  constexpr uint32_t kDeclared = 4096;
  std::string bytes;
  util::PutLe<uint8_t>(&bytes, wire::kMagic0);
  util::PutLe<uint8_t>(&bytes, wire::kMagic1);
  util::PutLe<uint8_t>(&bytes, wire::kVersion);
  util::PutLe<uint8_t>(&bytes, static_cast<uint8_t>(wire::FrameType::kQuery));
  util::PutLe<uint32_t>(&bytes, kDeclared);
  return bytes;
}

ConnOutcome RunSlowloris(const AdversaryOptions& options,
                         Clock::time_point stop_at, util::Rng& rng) {
  ConnOutcome out;
  auto sock = util::Socket::ConnectLoopback(options.port);
  if (!sock.ok()) return out;
  out.opened = true;
  std::string header = SlowlorisHeader();
  util::Status st = sock->WriteFull(header.data(), header.size(),
                                    util::Deadline::AfterMillis(1000));
  if (!st.ok()) {
    out.server_closed = IsServerClose(st);
    return out;
  }
  out.bytes_sent += header.size();
  // Dribble payload bytes far below any plausible minimum rate. The 1 ms
  // read probe doubles as the close detector: the server's slow-loris
  // disconnect surfaces as EOF here.
  while (Clock::now() < stop_at) {
    char byte = static_cast<char>(rng.Next() & 0xff);
    st = sock->WriteFull(&byte, 1, util::Deadline::AfterMillis(200));
    if (!st.ok()) {
      out.server_closed = IsServerClose(st);
      return out;
    }
    out.bytes_sent++;
    char probe;
    util::Status read =
        sock->ReadFull(&probe, 1, util::Deadline::AfterMillis(1));
    if (IsServerClose(read)) {
      out.server_closed = true;
      return out;
    }
    std::this_thread::sleep_for(MillisDuration(options.write_interval_ms));
  }
  return out;
}

ConnOutcome RunDribble(const AdversaryOptions& options,
                       Clock::time_point stop_at, util::Rng& rng) {
  ConnOutcome out;
  auto sock = util::Socket::ConnectLoopback(options.port);
  if (!sock.ok()) return out;
  out.opened = true;
  while (Clock::now() < stop_at) {
    std::string frame = RandomQueryFrame(rng);
    for (char byte : frame) {
      if (Clock::now() >= stop_at) return out;
      util::Status st =
          sock->WriteFull(&byte, 1, util::Deadline::AfterMillis(1000));
      if (!st.ok()) {
        out.server_closed = IsServerClose(st);
        return out;
      }
      out.bytes_sent++;
      std::this_thread::sleep_for(
          MillisDuration(options.write_interval_ms));
    }
    out.frames_sent++;
    auto response = ReadFrame(
        *sock, util::Deadline::AfterMillis(options.read_timeout_ms));
    if (!response.ok()) {
      out.server_closed = IsServerClose(response.status());
      return out;
    }
    BookResponse(*response, out);
  }
  return out;
}

ConnOutcome RunNeverRead(const AdversaryOptions& options,
                         Clock::time_point stop_at, util::Rng& rng) {
  ConnOutcome out;
  auto sock = util::Socket::ConnectLoopback(options.port);
  if (!sock.ok()) return out;
  out.opened = true;
  // Clamp the receive buffer to a few KB: Linux auto-tunes loopback
  // receive queues to megabytes, and a kernel that quietly absorbs the
  // responses this client refuses to read would keep the server's out
  // backlog empty and mask the very write-stall defense under test.
  int rcvbuf = 4096;
  ::setsockopt(sock->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  // Non-blocking writes keep framing valid while the server's
  // backpressure freezes the pipe: the offset tracks exactly how much of
  // the current frame went out, so every byte on the wire is a whole
  // prefix of real frames — the server keeps answering into its (bounded)
  // out buffer until the write-stall defense fires.
  if (!sock->SetNonBlocking(true).ok()) return out;
  std::string frame;
  size_t off = 0;
  while (Clock::now() < stop_at) {
    if (off == frame.size()) {
      frame = RandomQueryFrame(rng);
      off = 0;
      out.frames_sent++;
    }
    auto wrote = sock->WriteSome(frame.data() + off, frame.size() - off);
    if (!wrote.ok()) {
      out.server_closed = IsServerClose(wrote.status());
      return out;
    }
    if (wrote->would_block || wrote->bytes == 0) {
      std::this_thread::sleep_for(MillisDuration(5));
      continue;
    }
    off += wrote->bytes;
    out.bytes_sent += wrote->bytes;
  }
  // Frames counted are the fully written ones.
  if (off < frame.size() && out.frames_sent > 0) out.frames_sent--;
  return out;
}

ConnOutcome RunGarbage(const AdversaryOptions& options,
                       Clock::time_point stop_at, util::Rng& rng) {
  ConnOutcome out;
  auto sock = util::Socket::ConnectLoopback(options.port);
  if (!sock.ok()) return out;
  out.opened = true;
  std::string junk(256, '\0');
  junk[0] = '\x00';  // never the magic: the first frame is already poison
  for (size_t i = 1; i < junk.size(); ++i) {
    junk[i] = static_cast<char>(rng.Next() & 0xff);
  }
  util::Status st = sock->WriteFull(junk.data(), junk.size(),
                                    util::Deadline::AfterMillis(1000));
  if (!st.ok()) {
    out.server_closed = IsServerClose(st);
    return out;
  }
  out.bytes_sent += junk.size();
  // Expected: one typed error frame, then EOF.
  util::Deadline deadline = util::Deadline::At(stop_at);
  auto response = ReadFrame(*sock, deadline);
  if (response.ok()) {
    BookResponse(*response, out);
    char probe;
    util::Status read = sock->ReadFull(&probe, 1, deadline);
    out.server_closed = IsServerClose(read);
  } else {
    out.server_closed = IsServerClose(response.status());
  }
  return out;
}

ConnOutcome RunHalfClose(const AdversaryOptions& options,
                         Clock::time_point stop_at, util::Rng& rng) {
  ConnOutcome out;
  auto sock = util::Socket::ConnectLoopback(options.port);
  if (!sock.ok()) return out;
  out.opened = true;
  constexpr size_t kBurst = 16;
  for (size_t i = 0; i < kBurst; ++i) {
    std::string frame = RandomQueryFrame(rng);
    util::Status st = sock->WriteFull(frame.data(), frame.size(),
                                      util::Deadline::AfterMillis(1000));
    if (!st.ok()) {
      out.server_closed = IsServerClose(st);
      return out;
    }
    out.bytes_sent += frame.size();
    out.frames_sent++;
  }
  if (::shutdown(sock->fd(), SHUT_WR) != 0) return out;
  // The contract under test: half-close means "no more requests" — every
  // burst answer still arrives, in order, then a clean EOF.
  util::Deadline deadline = util::Deadline::At(stop_at);
  for (size_t i = 0; i < kBurst; ++i) {
    auto response = ReadFrame(*sock, deadline);
    if (!response.ok()) {
      out.server_closed = IsServerClose(response.status());
      return out;
    }
    BookResponse(*response, out);
  }
  char probe;
  util::Status read = sock->ReadFull(&probe, 1, deadline);
  out.clean_eof = IsServerClose(read);  // EOF exactly after the answers
  return out;
}

ConnOutcome RunOne(const AdversaryOptions& options,
                   Clock::time_point stop_at, uint64_t seed) {
  util::Rng rng(seed);
  switch (options.mode) {
    case AdversaryMode::kSlowloris:
      return RunSlowloris(options, stop_at, rng);
    case AdversaryMode::kDribble:
      return RunDribble(options, stop_at, rng);
    case AdversaryMode::kNeverRead:
      return RunNeverRead(options, stop_at, rng);
    case AdversaryMode::kGarbage:
      return RunGarbage(options, stop_at, rng);
    case AdversaryMode::kHalfClose:
      return RunHalfClose(options, stop_at, rng);
  }
  return ConnOutcome{};
}

}  // namespace

util::StatusOr<AdversaryMode> ParseAdversaryMode(std::string_view name) {
  if (name == "slowloris") return AdversaryMode::kSlowloris;
  if (name == "dribble") return AdversaryMode::kDribble;
  if (name == "never-read") return AdversaryMode::kNeverRead;
  if (name == "garbage") return AdversaryMode::kGarbage;
  if (name == "half-close") return AdversaryMode::kHalfClose;
  return util::Status::InvalidArgument(
      "unknown adversary mode '" + std::string(name) +
      "' (want slowloris|dribble|never-read|garbage|half-close)");
}

const char* AdversaryModeName(AdversaryMode mode) {
  switch (mode) {
    case AdversaryMode::kSlowloris:
      return "slowloris";
    case AdversaryMode::kDribble:
      return "dribble";
    case AdversaryMode::kNeverRead:
      return "never-read";
    case AdversaryMode::kGarbage:
      return "garbage";
    case AdversaryMode::kHalfClose:
      return "half-close";
  }
  return "unknown";
}

util::StatusOr<AdversaryReport> RunAdversary(
    const AdversaryOptions& options) {
  if (options.port == 0) {
    return util::Status::InvalidArgument("adversary needs a port");
  }
  if (options.connections == 0) {
    return util::Status::InvalidArgument(
        "adversary needs at least one connection");
  }
  Clock::time_point stop_at =
      Clock::now() + MillisDuration(options.duration_ms);
  std::vector<ConnOutcome> outcomes(options.connections);
  std::vector<std::thread> threads;
  threads.reserve(options.connections);
  for (size_t i = 0; i < options.connections; ++i) {
    threads.emplace_back([&, i] {
      outcomes[i] = RunOne(options, stop_at, options.seed + i * 7919);
    });
  }
  for (std::thread& t : threads) t.join();
  AdversaryReport report;
  for (const ConnOutcome& out : outcomes) {
    if (out.opened) report.connections_opened++;
    report.bytes_sent += out.bytes_sent;
    report.frames_sent += out.frames_sent;
    report.responses_read += out.responses_read;
    report.ok_responses += out.ok_responses;
    report.error_responses += out.error_responses;
    if (out.server_closed) report.server_closed++;
    if (out.clean_eof) report.clean_eofs++;
  }
  return report;
}

std::string FormatAdversaryReport(AdversaryMode mode,
                                  const AdversaryReport& report) {
  return std::string(AdversaryModeName(mode)) + ": opened " +
         std::to_string(report.connections_opened) + ", sent " +
         std::to_string(report.bytes_sent) + " bytes / " +
         std::to_string(report.frames_sent) + " frames, read " +
         std::to_string(report.responses_read) + " responses (" +
         std::to_string(report.ok_responses) + " ok, " +
         std::to_string(report.error_responses) + " error), server closed " +
         std::to_string(report.server_closed) + ", clean EOFs " +
         std::to_string(report.clean_eofs);
}

}  // namespace yver::serve::net
