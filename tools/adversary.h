#ifndef YVER_TOOLS_ADVERSARY_H_
#define YVER_TOOLS_ADVERSARY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace yver::serve::net {

/// The hostile-client repertoire the defense layer (DESIGN.md §15) is
/// built against. Each mode is a distinct misbehaviour with a distinct
/// expected server response:
///  - kSlowloris: sends a valid frame header, then dribbles payload bytes
///    far below any plausible rate — expects a slow-loris disconnect.
///  - kDribble: a *legitimately* slow client: whole frames, one byte at a
///    time, but above the configured minimum rate, reading every answer —
///    expects to be served normally and NEVER disconnected.
///  - kNeverRead: pipelines queries forever and never reads a response —
///    expects a write-stall disconnect once the server's bounded out
///    buffer fills (memory stays capped meanwhile).
///  - kGarbage: writes random bytes — expects one typed error frame, then
///    EOF.
///  - kHalfClose: sends a burst of queries, shutdown(SHUT_WR), and reads —
///    expects every answer in order followed by clean EOF (this adversary
///    is well-behaved; the server must treat half-close as "no more
///    requests", not as an abort).
enum class AdversaryMode : uint8_t {
  kSlowloris,
  kDribble,
  kNeverRead,
  kGarbage,
  kHalfClose,
};

/// Parses "slowloris" | "dribble" | "never-read" | "garbage" |
/// "half-close" (the --adversary spellings).
util::StatusOr<AdversaryMode> ParseAdversaryMode(std::string_view name);

const char* AdversaryModeName(AdversaryMode mode);

struct AdversaryOptions {
  uint16_t port = 0;
  AdversaryMode mode = AdversaryMode::kSlowloris;
  /// Concurrent hostile connections (each on its own thread).
  size_t connections = 4;
  /// Wall-clock budget for the attack; connections that are still alive
  /// when it elapses are closed by the adversary.
  double duration_ms = 2000;
  /// Pause between dribbled writes (slowloris / dribble pacing).
  double write_interval_ms = 50;
  /// Read deadline for the modes that read responses.
  double read_timeout_ms = 10000;
  uint64_t seed = 1;
};

/// What the attack observed, summed over all connections.
struct AdversaryReport {
  uint64_t connections_opened = 0;
  uint64_t bytes_sent = 0;
  uint64_t frames_sent = 0;     // complete frames put on the wire
  uint64_t responses_read = 0;  // whole response frames read back
  uint64_t ok_responses = 0;    // kResult frames among those
  uint64_t error_responses = 0;
  /// Connections the SERVER terminated (EOF or reset seen while the
  /// adversary still wanted to talk) — the defense layer firing.
  uint64_t server_closed = 0;
  /// Half-close mode only: connections whose every answer arrived in
  /// order before the clean EOF.
  uint64_t clean_eofs = 0;
};

/// Runs the attack against 127.0.0.1:port and reports what happened.
/// Errors reaching this Status are harness failures (could not connect at
/// all, bad options) — a server that drops hostile connections is success,
/// recorded in the report, not an error.
util::StatusOr<AdversaryReport> RunAdversary(const AdversaryOptions& options);

/// One-line summary for logs: mode, connections, bytes, server closes.
std::string FormatAdversaryReport(AdversaryMode mode,
                                  const AdversaryReport& report);

}  // namespace yver::serve::net

#endif  // YVER_TOOLS_ADVERSARY_H_
